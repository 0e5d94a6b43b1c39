#include "analysis/epoch_analyzer.h"

#include "sim/flat_map.h"

namespace cord
{

void
findEarlierEndpoints(const DecodedTrace &trace, EngineRaces &r)
{
    // One row per racy word: n last-write trace indices, then n
    // last-read ones.  A race's earlier access always set its slot.
    const std::size_t n = trace.threads();
    FlatAddrMap<std::uint32_t> rowOf;
    for (Addr w : r.racyWords) {
        const auto row = static_cast<std::uint32_t>(rowOf.size());
        rowOf[w] = row;
    }
    std::vector<std::uint64_t> last(rowOf.size() * 2 * n, 0);
    r.earlier.resize(r.races.size());
    std::size_t next = 0;
    for (std::uint64_t i = 0; next < r.races.size(); ++i) {
        const MemEvent &ev = trace.events[i];
        const std::uint32_t *row = rowOf.find(wordAddr(ev.addr));
        if (ev.isSync() || !row)
            continue;
        std::uint64_t *lastOf = &last[*row * 2 * n];
        for (; next < r.races.size() && r.later[next] == i; ++next) {
            HbRace &race = r.races[next];
            const std::uint64_t e =
                lastOf[(race.otherWasWrite ? 0 : n) + race.other];
            r.earlier[next] = e;
            race.otherTick = trace.events[e].tick;
        }
        lastOf[(ev.isWrite() ? 0 : n) + ev.tid] = i;
    }
}

HbAnalysis
analyzeEpochCompressed(const DecodedTrace &trace)
{
    HbAnalysis a;
    a.numThreads_ = trace.threads();
    if (a.numThreads_ == 0)
        return a;

    EngineRaces r = engineRaces<SyncOrder::HappensBefore>(
        trace, [](const MemEvent &) { return true; });
    for (const HbRace &race : r.races)
        a.endpoints_.insert(
            std::make_tuple(race.tick, race.word, race.accessor));
    a.races_ = std::move(r.races);
    a.racyWords_ = std::move(r.racyWords);
    return a;
}

} // namespace cord
