/**
 * @file
 * Race analysis of a recorded trace on the one race engine, the Ideal
 * detector's FastTrack core (cord/ideal_detector.h), whose per-word
 * epochs replace full vector-clock word histories.  The only offline
 * state is each race's earlier access, which the online detector never
 * needs: a second pass replays the racy words alone, so a race-free
 * trace costs one engine pass.  `analyzeEpochCompressed` runs it under
 * happens-before; the race predictor (analysis/predict.h) under its
 * weak order W, over the sampled words.
 *
 * CI's bench_predict job asserts analyzeEpochCompressed stays >= 2x
 * faster than the full-vector HbAnalysis on access-dense apps while
 * producing an identical race set (tests/predict_test.cpp proves the
 * equivalence field by field).
 */

#ifndef CORD_ANALYSIS_EPOCH_ANALYZER_H
#define CORD_ANALYSIS_EPOCH_ANALYZER_H

#include <cstdint>
#include <set>
#include <vector>

#include "analysis/hb_analyzer.h"
#include "cord/ideal_detector.h"
#include "harness/trace.h"

namespace cord
{

/** The racing pairs of one engine pass over a trace. */
struct EngineRaces
{
    std::vector<HbRace> races; //!< trace order of the later endpoint
    std::set<Addr> racyWords;
    /** Trace index of each race's later and earlier access. */
    std::vector<std::uint64_t> later, earlier;
};

/** Fill in @p r.earlier and each race's otherTick from @p r.later
 *  with one pass over the racy words' data accesses. */
void findEarlierEndpoints(const DecodedTrace &trace, unsigned numThreads,
                          EngineRaces &r);

/** Every racing pair of @p trace under @p Order (@p numThreads must
 *  cover the trace).  Sync events always reach the engine; a data
 *  event only when @p keep(ev) holds. */
template <SyncOrder Order, typename Keep>
EngineRaces
engineRaces(const DecodedTrace &trace, unsigned numThreads, Keep &&keep)
{
    EngineRaces r;
    IdealDetector engine(numThreads);
    for (std::uint64_t i = 0; i < trace.events.size(); ++i) {
        const MemEvent &ev = trace.events[i];
        if (!ev.isSync() && !keep(ev))
            continue;
        engine.observe<Order>(ev, [&](ThreadId u, bool otherWasWrite) {
            const Addr wa = wordAddr(ev.addr);
            r.races.push_back(
                HbRace{ev.tick, wa, ev.tid, ev.kind, u, 0, otherWasWrite});
            r.racyWords.insert(wa);
            r.later.push_back(i);
        });
    }
    findEarlierEndpoints(trace, numThreads, r);
    return r;
}

/** The full happens-before race set, result-identical to
 *  HbAnalysis::analyze(trace, numThreads): same pairs in the same
 *  order, racy words, endpoints and thread-count resolution. */
HbAnalysis analyzeEpochCompressed(const DecodedTrace &trace,
                                  unsigned numThreads = 0);

} // namespace cord

#endif // CORD_ANALYSIS_EPOCH_ANALYZER_H
