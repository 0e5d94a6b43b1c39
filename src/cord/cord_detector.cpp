#include "cord/cord_detector.h"

#include <algorithm>

#include "obs/tracer.h"
#include "sim/logging.h"

namespace cord
{

void
CordConfig::deriveGeometry(const MachineConfig &m, unsigned threads)
{
    numCores = m.numCores;
    numThreads = threads;
    memTsBanks =
        m.coherence == CoherenceKind::Directory ? m.numCores : 1;
}

CordConfig
CordConfig::forMachine(const MachineConfig &m, unsigned threads)
{
    CordConfig c;
    c.deriveGeometry(m, threads);
    return c;
}

CordDetector::CordDetector(const CordConfig &cfg, std::string name)
    : Detector(std::move(name)), cfg_(cfg),
      histories_(cfg.numCores, cfg.infiniteResidency, cfg.residency)
{
    cord_assert(cfg_.numCores > 0 && cfg_.numThreads > 0,
                "CORD needs at least one core and one thread");
    cord_assert(cfg_.entriesPerLine >= 1 && cfg_.entriesPerLine <= 2,
                "CORD keeps one or two timestamps per line");
    cord_assert(cfg_.d >= 1, "the sync-read margin D must be >= 1");
    cord_assert(cfg_.memTsBanks >= 1,
                "at least one main-memory timestamp bank");
    cord_assert(cfg_.walkPeriodEvents >= 1,
                "the cache-walker period must be >= 1 access");
    walkCountdown_ = cfg_.walkPeriodEvents;
    memTsBanks_ = cfg_.memTsBanks;
    memReadTs_.assign(memTsBanks_, 0);
    memWriteTs_.assign(memTsBanks_, 0);
    writers_.resize(cfg_.numThreads);
    threadDone_.assign(cfg_.numThreads, false);
    for (ThreadId t = 0; t < cfg_.numThreads; ++t)
        writers_[t].begin(log_, t, 1);
    lastTid_.assign(cfg_.numCores, kInvalidThread);
    raceChecks_ = stats_.counter("cord.raceChecks");
    dataRaces_ = stats_.counter("cord.dataRaces");
    orderRaces_ = stats_.counter("cord.orderRaces");
    memTsUpdates_ = stats_.counter("cord.memTsUpdates");
    windowViolations_ = stats_.counter("cord.windowViolations");
    coherenceInvalidations_ = stats_.counter("cord.coherenceInvalidations");
    lineDisplacements_ = stats_.counter("cord.lineDisplacements");
    entryDisplacements_ = stats_.counter("cord.entryDisplacements");
    walkerEvictions_ = stats_.counter("cord.walkerEvictions");
    migrationBumps_ = stats_.counter("cord.migrationBumps");
    filteredChecks_ = stats_.counter("cord.filteredChecks");
    memTsOrderUpdates_ = stats_.counter("cord.memTsOrderUpdates");
    suppressedMemRaces_ = stats_.counter("cord.suppressedMemRaces");
    memServedOrderUpdates_ = stats_.counter("cord.memServedOrderUpdates");
    clockJumpHist_ = stats_.histogramHandle("cord.clockJumpMagnitude");
    occupancyGauge_ = stats_.gaugeHandle("cord.historyOccupancy");
}

Ts64
CordDetector::memReadTs() const
{
    return *std::max_element(memReadTs_.begin(), memReadTs_.end());
}

Ts64
CordDetector::memWriteTs() const
{
    return *std::max_element(memWriteTs_.begin(), memWriteTs_.end());
}

void
CordDetector::foldIntoMemTs(const LineState &ls, Addr lineA, Tick now,
                            FoldCause cause)
{
    if (!cfg_.memTimestamps)
        return;
    const unsigned bank = memTsBank(lineA);
    bool changed = false;
    for (const Entry &e : ls.e) {
        if (!e.valid)
            continue;
        if (e.readBits && e.ts > memReadTs_[bank]) {
            memReadTs_[bank] = e.ts;
            changed = true;
        }
        if (e.writeBits && e.ts > memWriteTs_[bank]) {
            memWriteTs_[bank] = e.ts;
            changed = true;
        }
    }
    if (changed) {
        memTsUpdates_.inc();
        if (sink_)
            sink_->memTsBroadcast(now, cause, lineA);
    }
}

void
CordDetector::snoop(CoreId core, Addr addr,
                    HistoryDirectory<LineState>::Sharers sharers,
                    bool isWrite, Ts64 clock, SnoopResult &sr)
{
    const std::uint16_t wbit =
        static_cast<std::uint16_t>(1u << wordInLine(addr));
    histories_.forEachRemote(core, addr, sharers, [&](CoreId, LineState &ls) {
        sr.anyRemoteLine = true;
        // The probed transaction clears remote check-filter bits: the
        // remote cache can no longer assume the line is conflict-free.
        ls.filterW = false;
        if (isWrite)
            ls.filterR = false;
        for (const Entry &e : ls.e) {
            if (!e.valid)
                continue;
            if (!withinWindow(clock, e.ts))
                windowViolations_.inc();
            const bool conflicts =
                isWrite ? (((e.readBits | e.writeBits) & wbit) != 0)
                        : ((e.writeBits & wbit) != 0);
            if (conflicts) {
                if (!sr.haveConflict || e.ts > sr.maxConflictTs)
                    sr.maxConflictTs = e.ts;
                sr.haveConflict = true;
                if (sr.numConflicts <
                    static_cast<unsigned>(sr.conflictTs.size()))
                    sr.conflictTs[sr.numConflicts] = e.ts;
                ++sr.numConflicts;
            }
            if ((e.writeBits & wbit) != 0) {
                if (!sr.haveWriteTs || e.ts > sr.maxWriteTs)
                    sr.maxWriteTs = e.ts;
                sr.haveWriteTs = true;
            }
            if (e.writeBits != 0 && !isSynchronized(clock, e.ts, cfg_.d))
                sr.lineClearForRead = false;
        }
    });
    // A write filter requires sole ownership (MESI M/E): any fetch of
    // the line by another core goes on the bus and clears it again.
    sr.lineClearForWrite = !sr.anyRemoteLine;
}

void
CordDetector::timestampLocal(CoreId core, Addr addr, LineState *local,
                             bool isWrite, Ts64 clock,
                             const SnoopResult *snoopRes, Tick now)
{
    const std::uint16_t wbit =
        static_cast<std::uint16_t>(1u << wordInLine(addr));
    LineState &ls =
        local ? *local
              : histories_.getOrInsert(
                    core, addr, [&](Addr victimAddr, LineState &st) {
                        foldIntoMemTs(st, victimAddr, now,
                                      FoldCause::LineDisplacement);
                        lineDisplacements_.inc();
                        if (EventTracer *t = EventTracer::active())
                            t->emit(TraceEventKind::HistoryDisplacement,
                                    now, kInvalidThread, core,
                                    victimAddr, 0);
                    });

    // Find an entry already carrying this clock value.
    Entry *slot = nullptr;
    for (unsigned i = 0; i < cfg_.entriesPerLine; ++i) {
        if (ls.e[i].valid && ls.e[i].ts == clock) {
            slot = &ls.e[i];
            break;
        }
    }
    if (!slot) {
        // Displace the lowest-timestamp entry (paper Section 2.7.2),
        // folding its history into the main-memory timestamps.
        unsigned victim = 0;
        for (unsigned i = 1; i < cfg_.entriesPerLine; ++i) {
            if (!ls.e[victim].valid)
                break;
            if (!ls.e[i].valid || ls.e[i].ts < ls.e[victim].ts)
                victim = i;
        }
        if (ls.e[victim].valid) {
            LineState tmp;
            tmp.e[0] = ls.e[victim];
            foldIntoMemTs(tmp, addr, now, FoldCause::EntryDisplacement);
            entryDisplacements_.inc();
            if (EventTracer *t = EventTracer::active())
                t->emit(TraceEventKind::HistoryDisplacement, now,
                        kInvalidThread, core, addr, ls.e[victim].ts);
        }
        ls.e[victim] = Entry{};
        ls.e[victim].valid = true;
        ls.e[victim].ts = clock;
        slot = &ls.e[victim];
    }
    if (isWrite)
        slot->writeBits |= wbit;
    else
        slot->readBits |= wbit;

    // Check-filter grant (paper Section 2.7.2): the snoop response can
    // indicate that the whole line is conflict-free in this mode.
    if (cfg_.checkFilterBits && snoopRes) {
        if (isWrite) {
            if (snoopRes->lineClearForWrite) {
                ls.filterW = true;
                ls.filterR = true;
            }
        } else if (snoopRes->lineClearForRead) {
            ls.filterR = true;
        }
    }
}

void
CordDetector::commitClockChange(OrderLogWriter &wr, Ts64 newClock,
                                std::uint64_t instrBoundary,
                                const MemEvent &ev)
{
    const Ts64 old = wr.clock();
    const std::size_t entriesBefore = log_.size();
    wr.changeClock(newClock, instrBoundary);
    clockJumpHist_.observe(newClock - old);
    if (EventTracer *t = EventTracer::active()) {
        t->emit(TraceEventKind::ClockUpdate, ev.tick, ev.tid, ev.core,
                newClock, old);
        if (log_.size() > entriesBefore)
            t->emit(TraceEventKind::LogAppend, ev.tick, ev.tid, ev.core,
                    old, log_.size());
    }
}

Ts64
CordDetector::minActiveClock() const
{
    Ts64 minClk = 0;
    bool any = false;
    for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
        if (threadDone_[t])
            continue;
        const Ts64 c = writers_[t].clock();
        if (!any || c < minClk)
            minClk = c;
        any = true;
    }
    return any ? minClk : 0;
}

void
CordDetector::runWalker(Tick now)
{
    const Ts64 minClk = minActiveClock();
    if (minClk == 0)
        return;
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        // The walker's periodic sweep doubles as the mid-run sampling
        // point for history-cache occupancy; it evicts entries, never
        // lines, so the lines it visits are the resident ones.
        std::size_t resident = 0;
        histories_.forEach(c, [&](Addr lineA, LineState &ls) {
            ++resident;
            for (unsigned i = 0; i < cfg_.entriesPerLine; ++i) {
                Entry &e = ls.e[i];
                if (!e.valid)
                    continue;
                if (minClk > e.ts && minClk - e.ts > cfg_.staleThreshold) {
                    LineState tmp;
                    tmp.e[0] = e;
                    foldIntoMemTs(tmp, lineA, now,
                                  FoldCause::WalkerEviction);
                    walkerEvictions_.inc();
                    if (EventTracer *t = EventTracer::active())
                        t->emit(TraceEventKind::HistoryDisplacement,
                                now, kInvalidThread, c, lineA, e.ts);
                    e = Entry{};
                }
            }
        });
        occupancyGauge_.sample(static_cast<double>(resident));
    }
}

void
CordDetector::onAccess(const MemEvent &ev)
{
    cord_assert(ev.tid < cfg_.numThreads, "unknown thread ", ev.tid);
    cord_assert(ev.core < cfg_.numCores, "unknown core ", ev.core);

    const bool isW = ev.isWrite();
    const bool sync = ev.isSync();
    const std::uint16_t wbit =
        static_cast<std::uint16_t>(1u << wordInLine(ev.addr));

    OrderLogWriter &wr = writers_[ev.tid];
    Ts64 clock = wr.clock();

    // Thread (re)scheduled on this core: bump by D so stale local
    // timestamps of the previous occupant cannot cause self-races
    // (paper Section 2.7.4).
    if (lastTid_[ev.core] != ev.tid) {
        if (lastTid_[ev.core] != kInvalidThread && cfg_.migrationIncrement) {
            clock += cfg_.d;
            migrationBumps_.inc();
        }
        lastTid_[ev.core] = ev.tid;
    }

    // Read the local line and the line's sharers once.  touch() marks
    // the line most-recently-used, as timestampLocal's insert would;
    // nothing before timestampLocal changes this core's history, and
    // the sharer view follows the write invalidation below.
    LineState *local = histories_.touch(ev.core, ev.addr);
    const bool localHit = local != nullptr;
    const auto sharers = histories_.sharers(ev.addr);

    // Does this access need a race check on the bus?
    bool needCheck = true;
    if (localHit) {
        if (cfg_.checkFilterBits && !sync &&
            (isW ? local->filterW : local->filterR)) {
            needCheck = false;
            filteredChecks_.inc();
        } else {
            for (unsigned i = 0; i < cfg_.entriesPerLine && needCheck;
                 ++i) {
                const Entry &e = local->e[i];
                if (e.valid && e.ts == clock &&
                    (((isW ? e.writeBits : e.readBits) & wbit) != 0))
                    needCheck = false;
            }
        }
    }

    SnoopResult sr;
    bool memServed = false;
    if (needCheck) {
        snoop(ev.core, ev.addr, sharers, isW, clock, sr);
        raceChecks_.inc();
        if (EventTracer *t = EventTracer::active())
            t->emit(TraceEventKind::HistoryLookup, ev.tick,
                    kInvalidThread, ev.core, ev.addr, isW);
        // A check from a cache hit is extra address/timestamp-bus
        // traffic; a miss's check piggybacks on the miss transaction.
        if (localHit && sink_) {
            probes_.clear();
            sharers.forEachOther(
                ev.core, [&](CoreId oc) { probes_.push_back(oc); });
            sink_->raceCheck(ev.tick, ev.addr, probes_);
        }
        memServed = !localHit && !sr.anyRemoteLine;
    }

    Ts64 newClock = clock;
    if (needCheck) {
        if (sr.haveConflict) {
            if (isOrderRace(newClock, sr.maxConflictTs)) {
                newClock = sr.maxConflictTs + 1;
                orderRaces_.inc();
            }
            if (!sync) {
                // Data race detection with margin D (Section 2.6).
                const unsigned n =
                    std::min<unsigned>(sr.numConflicts,
                                       sr.conflictTs.size());
                for (unsigned i = 0; i < n; ++i) {
                    if (!isSynchronized(clock, sr.conflictTs[i], cfg_.d)) {
                        report_.record({ev.tick, ev.addr, ev.tid, ev.kind,
                                        clock, sr.conflictTs[i]});
                        dataRaces_.inc();
                        if (EventTracer *t = EventTracer::active())
                            t->emit(TraceEventKind::RaceReport, ev.tick,
                                    ev.tid, ev.core, ev.addr,
                                    sr.conflictTs[i]);
                    }
                }
            }
        }
        if (sync && !isW && sr.haveWriteTs) {
            // Sync-read clock update to wts + D (Section 2.6).
            const Ts64 target = sr.maxWriteTs + cfg_.d;
            if (target > newClock)
                newClock = target;
        }
        if (cfg_.memTimestamps) {
            // Every race check also compares against the main-memory
            // timestamps of the accessed line's home bank (the paper's
            // snooping design replicates a single pair, memTsBanks ==
            // 1; a directory keeps one pair per slice): conflicting
            // history may have been displaced or invalidated out of
            // all caches and folded into them, and correct
            // order-recording must still order this access after it
            // (Section 2.5).  Races "found" this way are never
            // reported -- they may be false (the bank covers all lines
            // homed on its slice).
            const unsigned bank = memTsBank(ev.addr);
            const Ts64 memR = memReadTs_[bank];
            const Ts64 memW = memWriteTs_[bank];
            const Ts64 tsMem = isW ? std::max(memR, memW) : memW;
            if (isOrderRace(newClock, tsMem)) {
                newClock = tsMem + 1;
                memTsOrderUpdates_.inc();
                if (!sync)
                    suppressedMemRaces_.inc();
                if (memServed)
                    memServedOrderUpdates_.inc();
            }
            if (sync && !isW && memW + 1 > newClock)
                newClock = memW + 1;
        }
    }

    // Commit the (single) pre-access clock change to the order log.
    if (newClock != wr.clock())
        commitClockChange(wr, newClock, ev.instrCount - 1, ev);

    // Coherence: a committed write invalidates all remote copies
    // (MESI BusRdX), folding their histories into the main-memory
    // timestamps.
    if (isW) {
        histories_.invalidateRemote(
            ev.core, ev.addr, sharers, [&](CoreId oc, LineState &st) {
                foldIntoMemTs(st, ev.addr, ev.tick,
                              FoldCause::Invalidation);
                coherenceInvalidations_.inc();
                if (EventTracer *t = EventTracer::active())
                    t->emit(TraceEventKind::HistoryDisplacement, ev.tick,
                            kInvalidThread, oc, ev.addr, 0);
            });
    }

    timestampLocal(ev.core, ev.addr, local, isW, newClock,
                   needCheck ? &sr : nullptr, ev.tick);

    // Clock increment after every synchronization write (Section 2.4).
    if (sync && isW)
        commitClockChange(wr, newClock + 1, ev.instrCount, ev);

    if (sync) {
        if (EventTracer *t = EventTracer::active())
            t->emit(isW ? TraceEventKind::SyncRelease
                        : TraceEventKind::SyncAcquire,
                    ev.tick, ev.tid, ev.core, ev.addr, wr.clock());
    }

    if (wr.clock() > maxClock_)
        maxClock_ = wr.clock();

    // Cache walker: bound timestamp staleness for the sliding window.
    const bool periodic = --walkCountdown_ == 0;
    if (periodic)
        walkCountdown_ = cfg_.walkPeriodEvents;
    if (periodic ||
        maxClock_ - maxClockAtLastWalk_ > cfg_.staleThreshold / 4) {
        runWalker(ev.tick);
        maxClockAtLastWalk_ = maxClock_;
    }
}

void
CordDetector::onThreadEnd(ThreadId tid, std::uint64_t totalInstrs)
{
    cord_assert(tid < cfg_.numThreads, "unknown thread ", tid);
    writers_[tid].finish(totalInstrs);
    threadDone_[tid] = true;
}

void
CordDetector::finish()
{
    stats_.set("cord.logEntries", log_.size());
    stats_.set("cord.logWireBytes", log_.wireBytes());
    HistogramStat &entryHist = stats_.histogramRef("cord.logEntryInstrs");
    for (const OrderLogEntry &e : log_.entries())
        entryHist.add(e.instrs);
}

} // namespace cord
