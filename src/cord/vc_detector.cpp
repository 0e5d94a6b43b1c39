#include "cord/vc_detector.h"

#include "sim/logging.h"

namespace cord
{

VcDetector::VcDetector(const VcConfig &cfg, std::string name)
    : Detector(std::move(name)), cfg_(cfg),
      histories_(cfg.numCores, cfg.infiniteResidency, cfg.residency),
      memReadVc_(cfg.numThreads), memWriteVc_(cfg.numThreads)
{
    cord_assert(cfg_.numCores > 0 && cfg_.numThreads > 0,
                "VC detector needs at least one core and one thread");
    cord_assert(cfg_.entriesPerLine >= 1 && cfg_.entriesPerLine <= 2,
                "one or two timestamps per line");
    vc_.reserve(cfg_.numThreads);
    for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
        vc_.emplace_back(cfg_.numThreads);
        vc_.back().tick(t); // each thread starts at component 1
    }
    dataRaces_ = stats_.counter("vc.dataRaces");
    orderRaces_ = stats_.counter("vc.orderRaces");
    lineDisplacements_ = stats_.counter("vc.lineDisplacements");
    entryDisplacements_ = stats_.counter("vc.entryDisplacements");
    memVcJoins_ = stats_.counter("vc.memVcJoins");
}

void
VcDetector::foldIntoMemVc(const Entry &e)
{
    if (!cfg_.memTimestamps || !e.valid)
        return;
    if (e.readBits)
        memReadVc_.join(e.vc);
    if (e.writeBits)
        memWriteVc_.join(e.vc);
}

void
VcDetector::foldIntoMemVc(const LineState &ls)
{
    for (const Entry &e : ls.e)
        foldIntoMemVc(e);
}

void
VcDetector::timestampLocal(CoreId core, Addr addr, LineState *local,
                           bool isWrite, const VectorClock &tvc)
{
    const std::uint16_t wbit =
        static_cast<std::uint16_t>(1u << wordInLine(addr));
    LineState &ls = local ? *local
                          : histories_.getOrInsert(
                                core, addr, [&](Addr, LineState &st) {
                                    foldIntoMemVc(st);
                                    lineDisplacements_.inc();
                                });
    Entry *slot = nullptr;
    for (unsigned i = 0; i < cfg_.entriesPerLine; ++i) {
        if (ls.e[i].valid && ls.e[i].vc == tvc) {
            slot = &ls.e[i];
            break;
        }
    }
    if (!slot) {
        unsigned victim = 0;
        for (unsigned i = 1; i < cfg_.entriesPerLine; ++i) {
            if (!ls.e[victim].valid)
                break;
            if (!ls.e[i].valid || ls.e[i].seq < ls.e[victim].seq)
                victim = i;
        }
        slot = &ls.e[victim];
        if (slot->valid) {
            foldIntoMemVc(*slot);
            entryDisplacements_.inc();
        }
        // Reset in place: assigning the clock reuses its storage.
        slot->vc = tvc;
        slot->readBits = 0;
        slot->writeBits = 0;
        slot->valid = true;
    }
    slot->seq = ++seq_;
    if (isWrite)
        slot->writeBits |= wbit;
    else
        slot->readBits |= wbit;
}

void
VcDetector::onAccess(const MemEvent &ev)
{
    cord_assert(ev.tid < cfg_.numThreads, "unknown thread ", ev.tid);
    cord_assert(ev.core < cfg_.numCores, "unknown core ", ev.core);

    const bool isW = ev.isWrite();
    const bool sync = ev.isSync();
    const std::uint16_t wbit =
        static_cast<std::uint16_t>(1u << wordInLine(ev.addr));

    VectorClock &tvc = vc_[ev.tid];
    // The local line and the line's sharers are read once per access
    // (see CordDetector::onAccess).
    LineState *local = histories_.touch(ev.core, ev.addr);
    const auto sharers = histories_.sharers(ev.addr);

    // Snoop remote histories for conflicts on this word.
    bool anyRemoteLine = false;
    histories_.forEachRemote(
        ev.core, ev.addr, sharers, [&](CoreId, LineState &ls) {
            anyRemoteLine = true;
            for (const Entry &e : ls.e) {
                if (!e.valid)
                    continue;
                const bool conflicts =
                    isW ? (((e.readBits | e.writeBits) & wbit) != 0)
                        : ((e.writeBits & wbit) != 0);
                if (conflicts && !e.vc.lessEq(tvc)) {
                    // Unordered conflict: a race.  Data races do not
                    // introduce ordering (the VC configurations are
                    // detection baselines, not order recorders), so they
                    // do not mask later races; sync races join as usual.
                    if (!sync) {
                        report_.record(
                            {ev.tick, ev.addr, ev.tid, ev.kind, 0, 0});
                        dataRaces_.inc();
                    } else {
                        tvc.join(e.vc);
                    }
                    orderRaces_.inc();
                }
                if (sync && !isW && (e.writeBits & wbit) != 0) {
                    // Sync read acquires the writer's ordering.
                    tvc.join(e.vc);
                }
            }
        });

    // Line supplied by memory: consult the memory vector timestamps,
    // never reporting races found this way.
    if (!local && !anyRemoteLine && cfg_.memTimestamps) {
        if (!memWriteVc_.lessEq(tvc)) {
            tvc.join(memWriteVc_);
            memVcJoins_.inc();
        }
        if (isW && !memReadVc_.lessEq(tvc)) {
            tvc.join(memReadVc_);
            memVcJoins_.inc();
        }
    }

    if (isW)
        histories_.invalidateRemote(
            ev.core, ev.addr, sharers,
            [&](CoreId, LineState &st) { foldIntoMemVc(st); });

    timestampLocal(ev.core, ev.addr, local, isW, tvc);

    // Advance own component after every synchronization write.
    if (sync && isW)
        tvc.tick(ev.tid);
}

} // namespace cord
