/**
 * @file
 * cordlint command-line parsing, split from the binary so the full
 * flag/exit-code contract is unit-testable (tests/cordlint_cli_test):
 *
 *  - modes: `check` (default), `predict`, `xval`, given as the first
 *    non-flag argument;
 *  - every option accepts both "--opt value" and "--opt=value";
 *  - any unknown option, malformed value, or flag used outside the
 *    mode it belongs to yields CliStatus::Error with a one-line
 *    reason (the binary prints it and exits 2);
 *  - --help anywhere yields CliStatus::Help (the binary exits 0).
 */

#ifndef CORD_ANALYSIS_CORDLINT_CLI_H
#define CORD_ANALYSIS_CORDLINT_CLI_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/predict.h"
#include "inject/injector.h"
#include "sched/factory.h"

namespace cord
{

/** What one cordlint invocation should do. */
enum class LintMode
{
    Check,   //!< artifact check suite (log/audit/nofp families)
    Predict, //!< predictive race analysis of a trace (+ log gate)
    Xval,    //!< explore schedules, cross-validate the predictor
};

/** How parsing ended. */
enum class CliStatus
{
    Run,   //!< options are valid; run the selected mode
    Help,  //!< --help was given; print usage, exit 0
    Error, //!< invalid invocation; print `error`, exit 2
};

/** Parsed cordlint invocation. */
struct CordlintCli
{
    CliStatus status = CliStatus::Run;
    std::string error; //!< one-line reason when status == Error

    LintMode mode = LintMode::Check;

    // check + predict inputs
    std::string logPath;
    std::string tracePath;
    unsigned threads = 0; //!< declared threads (0 = none); in xval
                          //!< mode the run's thread count (default 4)
    std::uint32_t d = 16;
    bool audit = true;
    bool json = false;
    bool strict = false;

    // predict knobs (PredictOptions mirror)
    unsigned sampleRate = 1;
    unsigned maxWitnesses = 16;

    // xval run configuration
    std::string workload = "fft";
    unsigned scale = 4;
    unsigned cores = 4;
    unsigned load = 100; //!< offered load % (server family)
    std::uint64_t seed = 1;
    unsigned schedules = 32;
    unsigned jobs = 1;
    SchedOptions sched;
    bool haveInjection = false;
    InjectionPick pick;
    bool knownRaces = false;

    /** Promote classified prediction escapes (warnings by default --
     *  they are documented single-trace limits, see analysis/xval.h)
     *  to errors: the strict gate for curated CI configurations. */
    bool failOnEscape = false;
};

/** Parse argv[1..argc-1]; never exits, never prints. */
CordlintCli parseCordlintCli(const std::vector<std::string> &args);

/** The --help text. */
const char *cordlintUsageText();

} // namespace cord

#endif // CORD_ANALYSIS_CORDLINT_CLI_H
