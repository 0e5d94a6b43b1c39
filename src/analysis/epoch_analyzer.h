/**
 * @file
 * Epoch-compressed happens-before analysis: the Ideal detector's
 * FastTrack engine (cord/ideal_detector.h) run over a recorded trace.
 *
 * `analyzeEpochCompressed` computes the exact same result as
 * `HbAnalysis::analyze` -- same racing pairs in the same order, same
 * racy-word and endpoint sets, same thread-count resolution -- by
 * feeding the trace through IdealDetector::observe, whose per-word
 * epochs replace the full vector-clock word histories.  The only
 * offline state is each race's earlier commit tick, which the online
 * detector never needs: a second pass replays ticks for the racy words
 * alone, so a race-free trace costs one engine pass.
 *
 * CI's bench_predict job asserts this analyzer stays >= 2x faster
 * than the full-vector HbAnalysis on access-dense apps while
 * producing an identical race set (tests/predict_test.cpp proves the
 * equivalence field by field).
 */

#ifndef CORD_ANALYSIS_EPOCH_ANALYZER_H
#define CORD_ANALYSIS_EPOCH_ANALYZER_H

#include "analysis/hb_analyzer.h"
#include "harness/trace.h"

namespace cord
{

/**
 * Epoch-compressed recomputation of the full happens-before race set.
 * Result-identical to HbAnalysis::analyze(trace, numThreads); see the
 * file comment for why it is much faster.
 */
HbAnalysis analyzeEpochCompressed(const DecodedTrace &trace,
                                  unsigned numThreads = 0);

} // namespace cord

#endif // CORD_ANALYSIS_EPOCH_ANALYZER_H
