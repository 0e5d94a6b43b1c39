#include "analysis/epoch_analyzer.h"

#include "cord/ideal_detector.h"
#include "sim/flat_map.h"

namespace cord
{

HbAnalysis
analyzeEpochCompressed(const DecodedTrace &trace, unsigned numThreads)
{
    HbAnalysis a;
    a.declaredThreads_ = numThreads;
    a.numThreads_ = HbAnalysis::resolveThreads(trace, numThreads);
    if (a.numThreads_ == 0)
        return a;
    const std::size_t n = a.numThreads_;

    // Pass 1: the race set.  otherTick is filled in by pass 2.
    IdealDetector engine(a.numThreads_);
    std::vector<std::size_t> raceEvent; //!< trace index, per race
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        const MemEvent &ev = trace.events[i];
        engine.observe(ev, [&](ThreadId u, bool otherWasWrite) {
            const Addr wa = wordAddr(ev.addr);
            a.races_.push_back(
                HbRace{ev.tick, wa, ev.tid, ev.kind, u, 0, otherWasWrite});
            a.racyWords_.insert(wa);
            a.endpoints_.insert(std::make_tuple(ev.tick, wa, ev.tid));
            raceEvent.push_back(i);
        });
    }
    if (a.races_.empty())
        return a;

    // Pass 2: replay the racy words' commit ticks, which the engine
    // does not keep -- one row per racy word, n last-write ticks then
    // n last-read ticks -- and read each race's earlier endpoint off
    // its row just before the later access updates it.
    FlatAddrMap<std::uint32_t> rowOf;
    for (Addr w : a.racyWords_) {
        const auto row = static_cast<std::uint32_t>(rowOf.size());
        rowOf[w] = row;
    }
    std::vector<Tick> ticks(rowOf.size() * 2 * n, 0);
    std::size_t next = 0;
    for (std::size_t i = 0; next < a.races_.size(); ++i) {
        const MemEvent &ev = trace.events[i];
        const std::uint32_t *row = rowOf.find(wordAddr(ev.addr));
        if (ev.isSync() || !row)
            continue;
        Tick *last = &ticks[*row * 2 * n];
        for (; next < a.races_.size() && raceEvent[next] == i; ++next) {
            HbRace &r = a.races_[next];
            r.otherTick = last[(r.otherWasWrite ? 0 : n) + r.other];
        }
        last[(ev.isWrite() ? 0 : n) + ev.tid] = ev.tick;
    }
    return a;
}

} // namespace cord
