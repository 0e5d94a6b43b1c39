/**
 * @file
 * Accuracy audits of CORD's online reports against the trace's ground
 * truth (cordlint check families "audit" and "nofp").
 *
 * The false-negative auditor re-runs a CORD detector *offline* over
 * the recorded trace (same committed access stream, so the result is
 * bit-identical to the online run -- no re-simulation needed) and
 * diffs it against a full vector-clock happens-before recomputation,
 * producing the paper's CORD-vs-Ideal coverage breakdown (the ~77%
 * raw-race coverage of Section 4.3, per workload).
 *
 * The no-false-positive checker proves the paper's central accuracy
 * claim on the artifact at hand: every race CORD reported must be a
 * genuine happens-before race at exactly the reported coordinates
 * (commit tick, word, accessing thread), failing loudly otherwise.
 */

#ifndef CORD_ANALYSIS_AUDITOR_H
#define CORD_ANALYSIS_AUDITOR_H

#include <cstdint>

#include "analysis/findings.h"
#include "analysis/hb_analyzer.h"
#include "cord/cord_detector.h"
#include "cord/race_report.h"
#include "harness/trace.h"

namespace cord
{

/** Per-workload CORD-vs-Ideal coverage breakdown. */
struct CoverageBreakdown
{
    std::uint64_t idealPairs = 0; //!< ground-truth racing pairs
    std::uint64_t cordPairs = 0;  //!< pairs CORD reported
    std::uint64_t idealWords = 0; //!< distinct racy words, ground truth
    std::uint64_t cordWords = 0;  //!< distinct racy words CORD reported
    std::uint64_t missedWords = 0; //!< racy words CORD never flagged
    bool idealProblem = false;     //!< ground truth found >= 1 race
    bool cordProblem = false;      //!< CORD found >= 1 race

    /** Raw race detection rate relative to Ideal (Figures 13/15/17). */
    double
    pairCoverage() const
    {
        return idealPairs ? static_cast<double>(cordPairs) /
                                static_cast<double>(idealPairs)
                          : 1.0;
    }

    /** Fraction of racy words CORD flagged at least once. */
    double
    wordCoverage() const
    {
        return idealWords ? static_cast<double>(idealWords - missedWords) /
                                static_cast<double>(idealWords)
                          : 1.0;
    }
};

/**
 * Re-run CORD (configured by @p cfg; core/thread counts are derived
 * from the trace) and the happens-before ground truth over @p trace,
 * record coverage metrics in @p report, and return the breakdown.
 * Every record of the offline CORD report passes the no-false-positive
 * check (nofp.checked).  @p hb must be the analysis of the same trace.
 */
CoverageBreakdown auditCoverage(const DecodedTrace &trace,
                                const HbAnalysis &hb,
                                const CordConfig &cfg,
                                LintReport &report);

/**
 * Verify that every CORD race record in @p records is a genuine
 * happens-before race of the trace analyzed by @p hb; each spurious
 * report is an error finding (the paper guarantees zero).
 * @param source label naming the report's origin ("online"/"offline")
 */
void checkNoFalsePositives(const HbAnalysis &hb,
                           const std::vector<RaceRecord> &records,
                           const char *source, LintReport &report);

/** The same check over @p cordReport's first 1,024 records only: the
 *  online (--lint) path's cap until the check runs in the campaign. */
inline void
checkNoFalsePositives(const HbAnalysis &hb, const RaceReport &cordReport,
                      const char *source, LintReport &report)
{
    checkNoFalsePositives(hb, cordReport.samples(), source, report);
}

} // namespace cord

#endif // CORD_ANALYSIS_AUDITOR_H
