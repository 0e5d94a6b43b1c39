#include "analysis/auditor.h"

#include <algorithm>
#include <sstream>

namespace cord
{

namespace
{

unsigned
coresInTrace(const DecodedTrace &trace)
{
    unsigned maxCore = 0;
    for (const MemEvent &ev : trace.events)
        maxCore = std::max(maxCore, static_cast<unsigned>(ev.core));
    return maxCore + 1;
}

} // namespace

CoverageBreakdown
auditCoverage(const DecodedTrace &trace, const HbAnalysis &hb,
              const CordConfig &cfg, LintReport &report)
{
    report.markChecked("audit.coverage");

    CordConfig offlineCfg = cfg;
    offlineCfg.numThreads = std::max(1u, trace.threads());
    offlineCfg.numCores = coresInTrace(trace);
    CordDetector cord(offlineCfg, "CORD-offline");
    // Each record CORD adds carries the access it is processing.
    std::vector<RaceRecord> reports;
    runDetectorOnTrace(trace, cord, [&](const MemEvent &ev) {
        while (reports.size() < cord.races().pairs())
            reports.push_back({ev.tick, ev.addr, ev.tid, ev.kind, 0, 0});
    });

    CoverageBreakdown cov;
    cov.idealPairs = hb.pairs();
    cov.cordPairs = cord.races().pairs();
    cov.idealProblem = hb.problemDetected();
    cov.cordProblem = cord.races().problemDetected();
    cov.idealWords = hb.racyWords().size();
    cov.cordWords = cord.races().words().size();
    for (const Addr w : hb.racyWords()) {
        if (cord.races().words().count(w) == 0)
            ++cov.missedWords;
    }

    report.setMetric("audit.idealPairs",
                     static_cast<double>(cov.idealPairs));
    report.setMetric("audit.cordPairs",
                     static_cast<double>(cov.cordPairs));
    report.setMetric("audit.pairCoverage", cov.pairCoverage());
    report.setMetric("audit.idealWords",
                     static_cast<double>(cov.idealWords));
    report.setMetric("audit.missedWords",
                     static_cast<double>(cov.missedWords));
    report.setMetric("audit.wordCoverage", cov.wordCoverage());
    report.setMetric("audit.problemDetected",
                     cov.cordProblem ? 1.0 : 0.0);

    if (cov.idealProblem && !cov.cordProblem) {
        std::ostringstream os;
        os << "trace contains " << cov.idealPairs
           << " racing pairs but CORD detected none (missed problem)";
        report.info("audit.coverage", os.str());
    }

    checkNoFalsePositives(hb, reports, "offline", report);
    report.setMetric("nofp.checked", static_cast<double>(reports.size()));
    return cov;
}

void
checkNoFalsePositives(const HbAnalysis &hb,
                      const std::vector<RaceRecord> &records,
                      const char *source, LintReport &report)
{
    report.markChecked("nofp.samples");
    std::size_t spurious = 0;
    for (const RaceRecord &r : records) {
        const Addr wa = wordAddr(r.addr);
        if (!hb.racyEndpoint(r.tick, wa, r.accessor)) {
            ++spurious;
            if (spurious <= 8) {
                std::ostringstream os;
                os << source << " CORD report: thread " << r.accessor
                   << (isWriteKind(r.kind) ? " write" : " read")
                   << " of word 0x" << std::hex << wa << std::dec
                   << " at tick " << r.tick
                   << " is not a happens-before race in the trace "
                      "(FALSE POSITIVE)";
                report.error("nofp.samples", os.str());
            }
        }
    }
    if (spurious > 8) {
        std::ostringstream os;
        os << source << " CORD report: " << spurious - 8
           << " further false positives suppressed";
        report.error("nofp.samples", os.str());
    }
}

} // namespace cord
