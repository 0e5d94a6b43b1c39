/**
 * @file
 * Predictive race analysis (cordlint mode "predict").
 *
 * Happens-before analysis only reports races that manifest in the one
 * recorded interleaving: once a release/acquire pair lands between two
 * conflicting accesses, the pair is ordered and stays silent even when
 * a slightly different schedule would have raced.  This pass predicts
 * such near-miss races from a single trace by weakening happens-before
 * to the *reads-from snapshot* partial order W:
 *
 *  - program order is kept in full;
 *  - a synchronization read is ordered after the one sync write it
 *    actually read from -- the thread joins a snapshot of the writer's
 *    vector clock taken at that write -- instead of after the
 *    accumulated history of every earlier write to the sync word the
 *    way happens-before does.
 *
 * W is pointwise dominated by happens-before (each join brings in a
 * snapshot that is itself dominated by the accumulated sync clock, and
 * own components advance identically), so every HB race is W-unordered
 * too: predicted races are a sound superset of the detected ones on
 * the same trace, by construction.  The analysis stays linear: it is
 * the one race engine (analysis/epoch_analyzer.h) under the sync rule
 * SyncOrder::LastWriter, whose per-word epochs keep a word one thread
 * touches at O(1) per access.
 *
 * Every predicted race on the first few distinct words carries a
 * feasibility witness -- a per-thread prefix of the trace (cutoffs in
 * events) that is W-down-closed, preserves every kept sync read's
 * reads-from edge, and ends with both racing accesses as the next
 * event of their threads, i.e. a reordered execution in which the two
 * accesses are co-enabled.  `verifyWitness` replays the kept
 * subsequence and checks all of that independently.
 *
 * docs/ANALYSIS.md section "Predictive race analysis" walks through
 * the order, the witness format and the cross-validation workflow.
 */

#ifndef CORD_ANALYSIS_PREDICT_H
#define CORD_ANALYSIS_PREDICT_H

#include <cstdint>
#include <set>
#include <vector>

#include "analysis/findings.h"
#include "analysis/hb_analyzer.h"
#include "harness/trace.h"

namespace cord
{

/** A predicted racing pair uses the same endpoint coordinates as a
 *  detected one so super-set comparisons are field-for-field. */
using PredictedRace = HbRace;

/** Knobs for one prediction pass. */
struct PredictOptions
{
    /**
     * Analyze one in @p sampleRate data words (deterministic address
     * hash; 0 and 1 both mean every word).  Sync words are always
     * processed -- sampling must never weaken the partial order.
     */
    unsigned sampleRate = 1;

    /** Witnesses are materialized for at most this many racy words. */
    unsigned maxWitnesses = 16;
};

/**
 * Feasibility witness for one predicted race: keep the first
 * `cutoffs[t]` events of every thread t (a W-down-closed set), then
 * the events at `firstIndex` / `secondIndex` race as the immediate
 * next steps of their threads.
 */
struct RaceWitness
{
    Addr word = 0;

    /** Global trace indices of the two racing accesses. */
    std::uint64_t firstIndex = 0, secondIndex = 0;

    /** Per-thread count of leading events kept in the reordered
     *  prefix (the racing accesses themselves are not counted). */
    std::vector<std::uint64_t> cutoffs;
};

/** Linear-time predictive race analysis of one trace. */
class PredictiveAnalysis
{
  public:
    /** Same thread-count contract as HbAnalysis::analyze. */
    static PredictiveAnalysis analyze(const DecodedTrace &trace,
                                      unsigned numThreads = 0,
                                      const PredictOptions &opt = {});

    unsigned numThreads() const { return numThreads_; }

    /** All predicted racing pairs, trace order of the later endpoint. */
    const std::vector<PredictedRace> &races() const { return races_; }

    std::uint64_t pairs() const { return races_.size(); }

    bool problemDetected() const { return !races_.empty(); }

    /** Distinct words in at least one predicted race. */
    const std::set<Addr> &racyWords() const { return racyWords_; }

    /** One witness per racy word, capped at opt.maxWitnesses. */
    const std::vector<RaceWitness> &witnesses() const { return witnesses_; }

    /** Sampling accounting: data accesses analyzed vs skipped. */
    std::uint64_t accessesAnalyzed() const { return accessesAnalyzed_; }
    std::uint64_t accessesSkipped() const { return accessesSkipped_; }

  private:
    PredictiveAnalysis() = default;

    unsigned numThreads_ = 0;
    std::vector<PredictedRace> races_;
    std::set<Addr> racyWords_;
    std::vector<RaceWitness> witnesses_;
    std::uint64_t accessesAnalyzed_ = 0;
    std::uint64_t accessesSkipped_ = 0;
};

/** True when a data word survives the prediction sampling filter. */
bool predictSampled(Addr word, unsigned sampleRate);

/**
 * Independently re-validate a witness against the trace it came from:
 * the racing accesses must match the witness word and be the next
 * event of their threads after the cutoffs, and every kept sync read
 * must read from the same sync write as in the original trace.
 */
bool verifyWitness(const DecodedTrace &trace, const RaceWitness &w);

/**
 * Gate prediction on artifact health: run the order-log checks (wire
 * decode, well-formedness, replay feasibility, trace cross-check) and
 * refuse to predict from a corrupt log.  Returns true when prediction
 * may proceed; all findings land in @p report.
 */
bool predictInputsValid(const std::vector<std::uint8_t> &wireLog,
                        const DecodedTrace &trace, unsigned numThreads,
                        Ts64 initialClock, LintReport &report);

/** Render a finished prediction into lint findings and metrics. */
void reportPrediction(const PredictiveAnalysis &pred, LintReport &report);

} // namespace cord

#endif // CORD_ANALYSIS_PREDICT_H
