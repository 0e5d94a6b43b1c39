#include "analysis/hb_analyzer.h"

#include "sim/logging.h"

namespace cord
{

HbAnalysis
HbAnalysis::analyze(const DecodedTrace &trace, unsigned numThreads)
{
    cord_assert(numThreads == 0 || numThreads == trace.threads(),
                "a trace of ", trace.threads(), " threads analyzed as ",
                numThreads);
    HbAnalysis a;
    a.numThreads_ = trace.threads();
    if (a.numThreads_ == 0)
        return a;
    const unsigned n = a.numThreads_;

    // Thread vector clocks; components start at 1 so epoch 0 == never.
    std::vector<VectorClock> vc;
    vc.reserve(n);
    for (ThreadId t = 0; t < n; ++t) {
        vc.emplace_back(n);
        vc.back().tick(t);
    }
    std::unordered_map<Addr, VectorClock> syncVc;

    /** Per-word, per-thread epoch and tick of the last read / write. */
    struct WordHistory
    {
        std::vector<std::uint32_t> lastWriteEpoch, lastReadEpoch;
        std::vector<Tick> lastWriteTick, lastReadTick;
    };
    std::unordered_map<Addr, WordHistory> words;

    for (const MemEvent &ev : trace.events) {
        cord_assert(ev.tid < n, "trace thread ", ev.tid,
                    " out of range");
        VectorClock &tvc = vc[ev.tid];
        const Addr wa = wordAddr(ev.addr);

        if (ev.isSync()) {
            auto &svc = syncVc[wa];
            if (svc.size() == 0)
                svc = VectorClock(n);
            if (!ev.isWrite()) {
                tvc.join(svc);
            } else {
                svc.join(tvc);
                tvc.tick(ev.tid);
            }
            continue;
        }

        auto wit = words.find(wa);
        if (wit == words.end()) {
            WordHistory h;
            h.lastWriteEpoch.assign(n, 0);
            h.lastReadEpoch.assign(n, 0);
            h.lastWriteTick.assign(n, 0);
            h.lastReadTick.assign(n, 0);
            wit = words.emplace(wa, std::move(h)).first;
        }
        WordHistory &h = wit->second;

        for (ThreadId u = 0; u < n; ++u) {
            if (u == ev.tid)
                continue;
            const std::uint32_t we = h.lastWriteEpoch[u];
            if (we != 0 && tvc[u] < we) {
                a.races_.push_back(HbRace{ev.tick, wa, ev.tid, ev.kind,
                                          u, h.lastWriteTick[u], true});
                a.racyWords_.insert(wa);
                a.endpoints_.insert(
                    std::make_tuple(ev.tick, wa, ev.tid));
            }
            if (ev.isWrite()) {
                const std::uint32_t re = h.lastReadEpoch[u];
                if (re != 0 && tvc[u] < re) {
                    a.races_.push_back(
                        HbRace{ev.tick, wa, ev.tid, ev.kind, u,
                               h.lastReadTick[u], false});
                    a.racyWords_.insert(wa);
                    a.endpoints_.insert(
                        std::make_tuple(ev.tick, wa, ev.tid));
                }
            }
        }
        if (ev.isWrite()) {
            h.lastWriteEpoch[ev.tid] = tvc[ev.tid];
            h.lastWriteTick[ev.tid] = ev.tick;
        } else {
            h.lastReadEpoch[ev.tid] = tvc[ev.tid];
            h.lastReadTick[ev.tid] = ev.tick;
        }
    }
    return a;
}

} // namespace cord
