#include "analysis/lint.h"

#include <optional>
#include <sstream>

#include "analysis/epoch_analyzer.h"
#include "cord/log_codec.h"

namespace cord
{

LintReport
runLint(const LintInput &in)
{
    LintReport report;

    LogCheckOptions opt;
    opt.initialClock = in.initialClock;
    opt.numThreads = in.numThreads;
    if (opt.numThreads == 0 && in.trace)
        opt.numThreads = HbAnalysis::threadsInTrace(*in.trace);

    // Decode (or adopt) the order log.
    std::optional<OrderLog> decoded;
    if (in.wireLog) {
        decoded = checkWireLog(*in.wireLog, opt, report);
    } else if (in.log) {
        decoded = *in.log;
    }

    if (decoded) {
        const OrderLog &log = *decoded;
        checkLogWellFormed(log, opt, report);
        checkReplayFeasible(log, report);
        if (in.trace)
            checkLogMatchesTrace(log, *in.trace, report);
        report.setMetric("log.entries", static_cast<double>(log.size()));
        report.setMetric("log.wireBytes",
                         static_cast<double>(log.wireBytes()));
    }

    if (in.trace) {
        // Same race set as HbAnalysis::analyze, but epoch-compressed
        // (analysis/epoch_analyzer.h) -- lint runs on every artifact.
        const HbAnalysis hb =
            analyzeEpochCompressed(*in.trace, opt.numThreads);
        report.setMetric("trace.events",
                         static_cast<double>(in.trace->events.size()));
        report.setMetric("trace.threads",
                         static_cast<double>(hb.numThreads()));
        if (hb.threadCountOverridden()) {
            std::ostringstream os;
            os << "trace uses thread IDs beyond the declared count ("
               << hb.declaredThreads() << " declared, "
               << hb.numThreads()
               << " required); analysis used the derived count";
            report.warning("trace.threads", os.str());
        }
        if (in.audit)
            auditCoverage(*in.trace, hb, in.cordConfig, report);
        if (in.onlineReport)
            checkNoFalsePositives(hb, *in.onlineReport, "online",
                                  report);
    }

    return report;
}

LintReport
lintCordRun(const CordDetector &cord, const TraceRecorder &trace,
            unsigned numThreads)
{
    // A log that breaks the bounded-jump invariant has no wire form;
    // lint it in memory, where checkLogWellFormed reports log.window.
    std::vector<std::uint8_t> wire;
    LintInput in;
    if (isWireEncodable(cord.orderLog())) {
        wire = encodeOrderLog(cord.orderLog());
        in.wireLog = &wire;
    } else {
        in.log = &cord.orderLog();
    }
    DecodedTrace decoded;
    decoded.events = trace.events();
    decoded.threadEnds = trace.threadEnds();
    in.trace = &decoded;
    in.onlineReport = &cord.races();
    in.numThreads = numThreads;
    in.cordConfig = cord.config();
    return runLint(in);
}

} // namespace cord
