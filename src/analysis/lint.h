/**
 * @file
 * cordlint: offline static analysis of CORD run artifacts.
 *
 * One entry point ties the check families together (docs/ANALYSIS.md):
 *
 *   log.*    order-log well-formedness and replay feasibility
 *   audit.*  CORD-vs-Ideal false-negative coverage breakdown
 *   nofp.*   no-false-positive proof for CORD's race reports
 *
 * Inputs are the serialized artifacts a run leaves behind -- the wire
 * order log and (optionally) the access trace -- so every check can be
 * reproduced later without re-running the simulator.
 */

#ifndef CORD_ANALYSIS_LINT_H
#define CORD_ANALYSIS_LINT_H

#include <cstdint>
#include <vector>

#include "analysis/auditor.h"
#include "analysis/findings.h"
#include "analysis/hb_analyzer.h"
#include "analysis/log_checker.h"
#include "cord/cord_detector.h"
#include "cord/race_report.h"
#include "harness/trace.h"

namespace cord
{

/** Everything one lint pass may consume; only one of wireLog/log is
 *  needed, and trace-dependent checks are skipped without a trace. */
struct LintInput
{
    /** Serialized order log (8-byte wire entries). */
    const std::vector<std::uint8_t> *wireLog = nullptr;

    /** Alternatively, an in-memory order log. */
    const OrderLog *log = nullptr;

    /** Access trace of the same run (enables cross-checks + audits). */
    const DecodedTrace *trace = nullptr;

    /** CORD's online race report, audited when a trace is present. */
    const RaceReport *onlineReport = nullptr;

    /** Thread count of the run; 0 = derive from trace/log. */
    unsigned numThreads = 0;

    /** Initial thread clock (CORD starts threads at 1). */
    Ts64 initialClock = 1;

    /** CORD configuration for the offline coverage audit (margin D,
     *  residency, ...); core/thread counts are derived per trace. */
    CordConfig cordConfig;

    /** Run the (more expensive) coverage audit when a trace exists. */
    bool audit = true;
};

/** Run every applicable check; the report carries findings + metrics. */
LintReport runLint(const LintInput &in);

/**
 * Lint a finished CORD run: @p cord's order log (through its wire
 * encoding, or in memory when it has none), @p trace of the same run,
 * and @p cord's online race report, audited under @p cord's
 * configuration.  @p numThreads is LintInput::numThreads (0 = derive
 * from the trace).
 */
LintReport lintCordRun(const CordDetector &cord, const TraceRecorder &trace,
                       unsigned numThreads = 0);

} // namespace cord

#endif // CORD_ANALYSIS_LINT_H
