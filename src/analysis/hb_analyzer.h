/**
 * @file
 * Full vector-clock happens-before analysis over a recorded access
 * trace (cordlint check families "audit" and "nofp").
 *
 * This recomputes, offline and from first principles, the complete set
 * of racing access pairs in a trace -- per-<word,thread> last-access
 * epochs kept as full per-thread vectors for every word, vector clocks
 * advanced by synchronization only -- and retains the full race list
 * with both endpoints of every race, so CORD's online reports can be
 * audited against it.
 *
 * It is the reference implementation of happens-before in this code
 * base.  The one production engine, the Ideal detector's FastTrack
 * core (cord/ideal_detector.h), runs online and, through
 * analyzeEpochCompressed (analysis/epoch_analyzer.h), offline; tests
 * pin both to this analyzer's result.  The race predictor drives the
 * same engine under its weak order W (analysis/predict.h).
 */

#ifndef CORD_ANALYSIS_HB_ANALYZER_H
#define CORD_ANALYSIS_HB_ANALYZER_H

#include <cstdint>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cord/vector_clock.h"
#include "harness/trace.h"
#include "mem/access.h"
#include "sim/types.h"

namespace cord
{

/** One racing pair: the later (detecting) endpoint plus the earlier. */
struct HbRace
{
    Tick tick = 0;          //!< commit tick of the later access
    Addr word = 0;          //!< word address of the conflict
    ThreadId accessor = 0;  //!< thread of the later access
    AccessKind kind = AccessKind::DataRead; //!< later access kind
    ThreadId other = 0;     //!< thread of the earlier access
    Tick otherTick = 0;     //!< commit tick of the earlier access
    bool otherWasWrite = false;
};

/** Complete happens-before race analysis of one trace. */
class HbAnalysis
{
  public:
    /**
     * Analyze a trace.  @p numThreads may be 0 to derive the thread
     * count from the trace contents.  A declared count smaller than
     * what the trace actually uses is never trusted: the analyzer
     * derives the real count defensively (no out-of-bounds indexing on
     * hostile headers) and records the override so lint can surface it
     * as a `trace.threads` finding.
     */
    static HbAnalysis analyze(const DecodedTrace &trace,
                              unsigned numThreads = 0);

    unsigned numThreads() const { return numThreads_; }

    /** Thread count the caller declared (0 = derive). */
    unsigned declaredThreads() const { return declaredThreads_; }

    /** True when the trace used thread IDs beyond the declared count
     *  and the analyzer grew the count instead of trusting the header. */
    bool
    threadCountOverridden() const
    {
        return declaredThreads_ != 0 && numThreads_ > declaredThreads_;
    }

    /** All racing pairs, in trace order of the later endpoint. */
    const std::vector<HbRace> &races() const { return races_; }

    std::uint64_t pairs() const { return races_.size(); }

    bool problemDetected() const { return !races_.empty(); }

    /** Distinct words involved in at least one race. */
    const std::set<Addr> &racyWords() const { return racyWords_; }

    /**
     * True when some race's later endpoint is thread @p accessor
     * committing at @p tick on @p word -- the exact coordinates an
     * online detector reports (no-false-positive audit).
     */
    bool
    racyEndpoint(Tick tick, Addr word, ThreadId accessor) const
    {
        return endpoints_.count(std::make_tuple(tick, word, accessor)) >
               0;
    }

    /** Derive the thread count a trace requires. */
    static unsigned threadsInTrace(const DecodedTrace &trace);

    /** Shared defensive thread-count resolution (see analyze()). */
    static unsigned resolveThreads(const DecodedTrace &trace,
                                   unsigned declared);

  private:
    HbAnalysis() = default;

    /** The epoch-compressed engine builds the same result type. */
    friend HbAnalysis analyzeEpochCompressed(const DecodedTrace &trace,
                                             unsigned numThreads);

    unsigned numThreads_ = 0;
    unsigned declaredThreads_ = 0;
    std::vector<HbRace> races_;
    std::set<Addr> racyWords_;
    std::set<std::tuple<Tick, Addr, ThreadId>> endpoints_;
};

} // namespace cord

#endif // CORD_ANALYSIS_HB_ANALYZER_H
