/**
 * @file
 * cordlint -- offline static analysis of CORD run artifacts.
 *
 * Three modes (docs/ANALYSIS.md):
 *
 *   cordlint [check] --log F / --trace F
 *     the artifact check suite: log well-formedness and replay
 *     feasibility, the CORD-vs-Ideal false-negative coverage audit,
 *     and the no-false-positive proof.
 *
 *   cordlint predict --trace F [--log F]
 *     predictive race analysis: report the races a *different*
 *     schedule of the recorded run could manifest, each with a
 *     verified feasibility witness.  A corrupt order log (when given)
 *     aborts the prediction.
 *
 *   cordlint xval --workload W --schedules M ...
 *     cross-validation: explore M schedules, predict from the
 *     baseline trace alone, and fail unless the prediction covers
 *     every racy word any explored schedule manifested.
 *
 * All flag parsing lives in analysis/cordlint_cli.h (unit-tested);
 * exit status: 0 = clean, 1 = findings, 2 = usage error or a trace
 * file that cannot be read or is refused as corrupt.
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cordlint_cli.h"
#include "analysis/lint.h"
#include "analysis/predict.h"
#include "analysis/xval.h"
#include "cord/log_codec.h"
#include "harness/exec.h"
#include "harness/trace.h"

using namespace cord;

namespace
{

int
finish(const LintReport &report, const CordlintCli &cli)
{
    const std::string rendered =
        cli.json ? report.renderJson() : report.renderText();
    std::fputs(rendered.c_str(), stdout);
    if (report.errors() > 0)
        return 1;
    if (cli.strict && report.warnings() > 0)
        return 1;
    return 0;
}

/** Load the --trace file; one that cannot be read or that decodeTrace
 *  refuses is an input error (exit 2). */
DecodedTrace
loadTraceOrExit(const std::string &path)
{
    DecodedTrace trace;
    std::string err;
    if (!loadTrace(path, trace, err)) {
        std::fprintf(stderr, "cordlint: %s: %s\n", path.c_str(),
                     err.c_str());
        std::exit(2);
    }
    return trace;
}

int
runCheckMode(const CordlintCli &cli)
{
    std::vector<std::uint8_t> logBytes;
    std::optional<DecodedTrace> trace;
    if (!cli.tracePath.empty())
        trace = loadTraceOrExit(cli.tracePath);
    if (!cli.logPath.empty())
        logBytes = loadLogBytes(cli.logPath);

    LintInput in;
    if (!cli.logPath.empty())
        in.wireLog = &logBytes;
    if (trace)
        in.trace = &*trace;
    in.numThreads = cli.threads;
    in.cordConfig.d = cli.d;
    in.audit = cli.audit;

    return finish(runLint(in), cli);
}

int
runPredictMode(const CordlintCli &cli)
{
    const DecodedTrace trace = loadTraceOrExit(cli.tracePath);
    LintReport report;

    checkDeclaredThreads(trace, cli.threads, report);
    if (report.errors() > 0)
        return finish(report, cli);
    if (!cli.logPath.empty()) {
        const std::vector<std::uint8_t> logBytes =
            loadLogBytes(cli.logPath);
        if (!predictInputsValid(logBytes, trace, 1, report))
            return finish(report, cli);
    }

    PredictOptions opt;
    opt.sampleRate = cli.sampleRate;
    opt.maxWitnesses = cli.maxWitnesses;
    const PredictiveAnalysis pred =
        PredictiveAnalysis::analyze(trace, opt);
    reportPrediction(pred, report);

    unsigned verified = 0;
    for (const RaceWitness &w : pred.witnesses())
        if (verifyWitness(trace, w))
            ++verified;
    report.setMetric("predict.witnessesVerified",
                     static_cast<double>(verified));
    if (verified != pred.witnesses().size())
        report.error("predict.witness",
                     "a witness failed independent verification "
                     "(predictor bug)");

    return finish(report, cli);
}

int
runXvalMode(const CordlintCli &cli)
{
    XvalSpec spec;
    spec.explore.workload = cli.workload;
    spec.explore.params.numThreads = cli.threads;
    spec.explore.params.scale = cli.scale;
    spec.explore.params.seed = cli.seed;
    spec.explore.params.loadPercent = cli.load;
    spec.explore.params.includeKnownRaces = cli.knownRaces;
    spec.explore.machine.numCores = cli.cores;
    spec.explore.sched = cli.sched;
    spec.explore.schedules = cli.schedules;
    spec.explore.seed = cli.seed;
    spec.explore.jobs = resolveJobs(cli.jobs);
    spec.explore.haveInjection = cli.haveInjection;
    spec.explore.pick = cli.pick;
    spec.explore.cordD = cli.d;
    spec.predict.sampleRate = cli.sampleRate;

    LintReport report;
    reportXval(runXval(spec), report, cli.failOnEscape);
    return finish(report, cli);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    const CordlintCli cli = parseCordlintCli(args);
    if (cli.status == CliStatus::Help) {
        std::fputs(cordlintUsageText(), stdout);
        return 0;
    }
    if (cli.status == CliStatus::Error) {
        std::fprintf(stderr, "cordlint: %s (try 'cordlint --help')\n",
                     cli.error.c_str());
        return 2;
    }
    switch (cli.mode) {
      case LintMode::Check:
        return runCheckMode(cli);
      case LintMode::Predict:
        return runPredictMode(cli);
      case LintMode::Xval:
        return runXvalMode(cli);
    }
    return 2;
}
