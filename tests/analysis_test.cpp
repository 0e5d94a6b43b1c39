/**
 * @file
 * Tests for the offline analysis subsystem (src/analysis): lint report
 * plumbing, order-log well-formedness checks, the happens-before
 * ground-truth analyzer (and the online Ideal detector checked against
 * it on every workload), the engine's two sync rules, the
 * false-negative coverage auditor and the no-false-positive checker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/auditor.h"
#include "analysis/findings.h"
#include "analysis/hb_analyzer.h"
#include "analysis/lint.h"
#include "analysis/log_checker.h"
#include "cord/clock.h"
#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "cord/log_codec.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "inject/injector.h"
#include "sim/rng.h"
#include "workloads/workload.h"

namespace cord
{
namespace
{

/** Record one clean run: CORD + Ideal + trace. */
struct Recording
{
    std::vector<std::uint8_t> wireLog;
    DecodedTrace trace;
    RaceReport cordReport;
    std::uint64_t cordPairs = 0;
    std::uint64_t idealPairs = 0;
    bool completed = false;
};

Recording
record(const std::string &workload, std::uint64_t seed,
       const InjectionPick *pick = nullptr, Tick maxTicks = 0)
{
    CordConfig cc;
    CordDetector cord(cc);
    IdealDetector ideal(4);
    TraceRecorder trace;

    RunSetup setup;
    setup.workload = workload;
    setup.params.seed = seed;
    setup.detectors = {&cord, &ideal, &trace};
    RemoveOneInstance filter(pick ? *pick : InjectionPick{});
    if (pick) {
        setup.filter = &filter;
        setup.maxTicks = maxTicks ? maxTicks : 500000000ULL;
    }
    const RunOutcome out = runWorkload(setup);

    Recording rec;
    rec.completed = out.completed;
    if (!out.completed)
        return rec;
    rec.wireLog = encodeOrderLog(cord.orderLog());
    rec.trace = trace.trace();
    for (const RaceRecord &r : cord.races().samples())
        rec.cordReport.record(r);
    rec.cordPairs = cord.races().pairs();
    rec.idealPairs = ideal.races().pairs();
    return rec;
}

/** Find an injection on cholesky whose removal manifests races. */
const Recording &
racyRecording()
{
    static const Recording rec = [] {
        for (std::uint64_t seq = 0; seq < 20; ++seq) {
            const InjectionPick pick{0, seq};
            Recording r = record("cholesky", 3, &pick);
            if (r.completed && r.idealPairs > 0)
                return r;
        }
        return Recording{};
    }();
    return rec;
}

TEST(LintClean, ZeroFindingsOnThreeWorkloads)
{
    // Acceptance gate: clean order logs from >= 3 Splash-2 analogs
    // must lint with zero findings.
    for (const char *app : {"fft", "lu", "radix"}) {
        const Recording rec = record(app, 11);
        ASSERT_TRUE(rec.completed) << app;
        ASSERT_FALSE(rec.wireLog.empty()) << app;

        LintInput in;
        in.wireLog = &rec.wireLog;
        in.trace = &rec.trace;
        in.onlineReport = &rec.cordReport;
        const LintReport report = runLint(in);
        EXPECT_TRUE(report.findings().empty())
            << app << ":\n" << report.renderText();
        EXPECT_TRUE(report.clean()) << app;
        EXPECT_GT(report.metrics().at("log.entries"), 0.0) << app;
    }
}

TEST(HbAnalyzer, MatchesIdealOnRacyRun)
{
    const Recording &rec = racyRecording();
    ASSERT_TRUE(rec.completed)
        << "no manifesting injection found on cholesky";
    ASSERT_GT(rec.idealPairs, 0u);

    const HbAnalysis hb = HbAnalysis::analyze(rec.trace);
    EXPECT_EQ(hb.numThreads(), 4u);
    EXPECT_EQ(hb.pairs(), rec.idealPairs)
        << "offline HB ground truth disagrees with the online Ideal "
           "detector on the same committed access stream";
    EXPECT_TRUE(hb.problemDetected());

    // Every race's later endpoint must be queryable at its exact
    // coordinates.
    for (const HbRace &r : hb.races())
        EXPECT_TRUE(hb.racyEndpoint(r.tick, r.word, r.accessor));
}

/** What expectIdealMatchesReference saw. */
struct ReferenceRun
{
    RunOutcome outcome;
    /** Racing pairs in which a write races with an earlier read by a
     *  thread that never wrote the word: only the reader half of
     *  Ideal's sharer masks can find those once a word is shared. */
    std::uint64_t pureReaderRaces = 0;
};

/** Run @p setup under Ideal and a TraceRecorder and expect Ideal's
 *  racing pairs and racy words to equal the full-vector reference's
 *  on the recorded stream. */
ReferenceRun
expectIdealMatchesReference(RunSetup setup, const std::string &what)
{
    IdealDetector ideal(setup.params.numThreads);
    TraceRecorder trace;
    setup.detectors = {&ideal, &trace};
    ReferenceRun run;
    run.outcome = runWorkload(setup);

    // A hung run never ends some of its threads; close its trace with
    // their end records, as a completed run's would have.
    DecodedTrace t = trace.trace();
    for (ThreadId tid = 0; tid < setup.params.numThreads; ++tid) {
        if (std::none_of(t.threadEnds.begin(), t.threadEnds.end(),
                         [&](const auto &end) { return end.first == tid; }))
            t.threadEnds.emplace_back(tid, 0);
    }
    const HbAnalysis hb = HbAnalysis::analyze(t, setup.params.numThreads);
    EXPECT_EQ(ideal.races().pairs(), hb.pairs()) << what;
    EXPECT_EQ(ideal.races().words(), hb.racyWords()) << what;

    std::set<std::pair<ThreadId, Addr>> wrote;
    for (const MemEvent &e : t.events)
        if (e.kind == AccessKind::DataWrite)
            wrote.insert({e.tid, wordAddr(e.addr)});
    for (const HbRace &r : hb.races())
        if (r.kind == AccessKind::DataWrite && !r.otherWasWrite &&
            !wrote.count({r.other, r.word}))
            ++run.pureReaderRaces;
    return run;
}

class IdealReference : public ::testing::TestWithParam<std::string>
{
};

TEST_P(IdealReference, CleanKnownRacesAndInjectedRuns)
{
    const std::string app = GetParam();
    RunSetup setup;
    setup.workload = app;
    setup.params.scale = 1;
    setup.params.seed = 11;
    const RunOutcome clean =
        expectIdealMatchesReference(setup, app + " clean").outcome;
    ASSERT_TRUE(clean.completed) << app;
    const Tick watchdog = clean.ticks * 25 + 1000000; // as campaigns

    if (app == "kvstore") {
        // Thread 3 reads a bucket without its rwlock read side; a later
        // writer then races with that read, and thread 3 never writes
        // the word.  No other run here has such a race.
        RemoveOneInstance noReadSide({3, 11});
        RunSetup injected = setup;
        injected.filter = &noReadSide;
        injected.maxTicks = watchdog;
        const ReferenceRun run =
            expectIdealMatchesReference(injected, app + " no read side");
        EXPECT_EQ(noReadSide.removedKind(), SyncInstanceKind::RwReadPair);
        EXPECT_GT(run.pureReaderRaces, 0u)
            << "the run no longer races a write with a pure reader";
    }

    if (app == "barnes" || app == "volrend") {
        RunSetup known = setup;
        known.params.includeKnownRaces = true;
        expectIdealMatchesReference(known, app + " known races");
    }

    Rng rng(11);
    RemoveOneInstance filter(pickUniformInstance(clean.syncCensus, rng));
    setup.filter = &filter;
    setup.maxTicks = watchdog;
    expectIdealMatchesReference(setup, app + " injected");
}

INSTANTIATE_TEST_SUITE_P(AllApps, IdealReference,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &param) {
                             std::string n = param.param;
                             std::replace(n.begin(), n.end(), '-', '_');
                             return n;
                         });

TEST(IdealManyThreads, DirectoryBarnesMatchesReference)
{
    // Past 64 threads a word's race check scans every thread instead
    // of its sharer masks.
    RunSetup setup;
    setup.workload = "barnes";
    setup.params.numThreads = 72;
    setup.params.scale = 1;
    setup.params.seed = 12;
    setup.params.includeKnownRaces = true;
    setup.machine.numCores = 72;
    setup.machine.coherence = CoherenceKind::Directory;
    EXPECT_TRUE(expectIdealMatchesReference(setup, "barnes_dir72")
                    .outcome.completed);
}

TEST(Auditor, CoverageReproducibleFromTraceAlone)
{
    const Recording &rec = racyRecording();
    ASSERT_TRUE(rec.completed);

    const HbAnalysis hb = HbAnalysis::analyze(rec.trace);
    CordConfig cfg; // same margin D as the online run
    LintReport r1, r2;
    const CoverageBreakdown c1 = auditCoverage(rec.trace, hb, cfg, r1);
    const CoverageBreakdown c2 = auditCoverage(rec.trace, hb, cfg, r2);

    // Deterministic: two audits of the same artifact agree exactly.
    EXPECT_EQ(c1.idealPairs, c2.idealPairs);
    EXPECT_EQ(c1.cordPairs, c2.cordPairs);
    EXPECT_EQ(c1.missedWords, c2.missedWords);

    // And the offline CORD re-run reproduces the online counts
    // without re-running the simulator.
    EXPECT_EQ(c1.cordPairs, rec.cordPairs);
    EXPECT_EQ(c1.idealPairs, rec.idealPairs);
    EXPECT_LE(c1.pairCoverage(), 1.0);
    EXPECT_EQ(r1.errors(), 0u) << r1.renderText();
}

TEST(Auditor, OnlineReportHasNoFalsePositives)
{
    const Recording &rec = racyRecording();
    ASSERT_TRUE(rec.completed);
    const HbAnalysis hb = HbAnalysis::analyze(rec.trace);
    LintReport report;
    checkNoFalsePositives(hb, rec.cordReport, "online", report);
    EXPECT_EQ(report.errors(), 0u) << report.renderText();
}

TEST(Auditor, FlagsFabricatedRaceAsFalsePositive)
{
    const Recording &rec = racyRecording();
    ASSERT_TRUE(rec.completed);
    const HbAnalysis hb = HbAnalysis::analyze(rec.trace);

    RaceReport fabricated;
    fabricated.record(RaceRecord{/*tick=*/1, /*addr=*/0xdead0000,
                                 /*accessor=*/0, AccessKind::DataWrite,
                                 10, 20});
    LintReport report;
    checkNoFalsePositives(hb, fabricated, "online", report);
    EXPECT_EQ(report.errors(), 1u) << report.renderText();
    EXPECT_NE(report.renderText().find("FALSE POSITIVE"),
              std::string::npos);
}

TEST(Auditor, OfflineCheckCoversEveryReport)
{
    // barnes with its known races reports more pairs than a RaceReport
    // keeps samples of; the offline check must still see every one.
    CordConfig cfg;
    CordDetector cord(cfg);
    TraceRecorder trace;
    RunSetup setup;
    setup.workload = "barnes";
    setup.params.seed = 1;
    setup.params.scale = 4;
    setup.params.includeKnownRaces = true;
    setup.detectors = {&cord, &trace};
    ASSERT_TRUE(runWorkload(setup).completed);
    ASSERT_GT(cord.races().pairs(), cord.races().samples().size());

    const DecodedTrace &t = trace.trace();
    LintReport report;
    auditCoverage(t, HbAnalysis::analyze(t), cfg, report);
    EXPECT_EQ(report.metrics().at("audit.cordPairs"),
              static_cast<double>(cord.races().pairs()));
    EXPECT_EQ(report.metrics().at("nofp.checked"),
              report.metrics().at("audit.cordPairs"));
    EXPECT_EQ(report.errors(), 0u) << report.renderText();
}

TEST(SyncOrderRule, LastWriterLearnsOnlyTheLastRelease)
{
    // t0 writes X and releases L, t1 releases L, t2 acquires L and
    // writes X.  Happens-before joins both releases into L's clock;
    // the W order keeps only t1's, so only W sees t0's write race.
    constexpr Addr kX = 0x1000, kL = 0x2000;
    auto ev = [](Tick tick, ThreadId tid, Addr addr, AccessKind kind) {
        MemEvent e;
        e.tick = tick;
        e.tid = tid;
        e.addr = addr;
        e.kind = kind;
        return e;
    };
    const MemEvent events[] = {
        ev(10, 0, kX, AccessKind::DataWrite),
        ev(20, 0, kL, AccessKind::SyncWrite),
        ev(30, 1, kL, AccessKind::SyncWrite),
        ev(40, 2, kL, AccessKind::SyncRead),
        ev(50, 2, kX, AccessKind::DataWrite),
    };

    IdealDetector hb(3), w(3);
    std::vector<std::pair<ThreadId, bool>> hbRaces, wRaces;
    for (const MemEvent &e : events) {
        hb.observe(e, [&](ThreadId u, bool wr) {
            hbRaces.emplace_back(u, wr);
        });
        w.observe<SyncOrder::LastWriter>(e, [&](ThreadId u, bool wr) {
            wRaces.emplace_back(u, wr);
        });
    }

    // Each releaser's component as of its release (clocks start at 1).
    EXPECT_EQ(hb.threadClock(2)[0], 1u);
    EXPECT_EQ(hb.threadClock(2)[1], 1u);
    EXPECT_EQ(w.threadClock(2)[0], 0u);
    EXPECT_EQ(w.threadClock(2)[1], 1u);

    EXPECT_TRUE(hbRaces.empty());
    ASSERT_EQ(wRaces.size(), 1u);
    EXPECT_EQ(wRaces[0], std::make_pair(ThreadId{0}, true));
}

TEST(LogChecker, MonotonicityViolationIsInfeasible)
{
    OrderLog log;
    log.append(0, 9, 10);
    log.append(0, 5, 10); // program order contradicts clock order
    log.append(1, 7, 10);

    LintReport report;
    checkLogWellFormed(log, LogCheckOptions{}, report);
    checkReplayFeasible(log, report);
    EXPECT_GE(report.errors(), 2u) << report.renderText();
    const std::string text = report.renderText();
    EXPECT_NE(text.find("log.monotone"), std::string::npos);
    EXPECT_NE(text.find("log.replayable"), std::string::npos);
}

TEST(LogChecker, EqualClocksAcrossThreadsAreFeasible)
{
    OrderLog log;
    log.append(0, 1, 5);
    log.append(1, 1, 5); // concurrent fragments may share a clock
    log.append(0, 2, 5);
    log.append(1, 3, 5);

    LintReport report;
    checkLogWellFormed(log, LogCheckOptions{}, report);
    checkReplayFeasible(log, report);
    EXPECT_EQ(report.errors(), 0u) << report.renderText();
}

TEST(LogChecker, WindowJumpIsAnError)
{
    OrderLog log;
    log.append(0, 1, 5);
    log.append(0, 1 + kClockWindow, 5);
    LintReport report;
    checkLogWellFormed(log, LogCheckOptions{}, report);
    EXPECT_EQ(report.errors(), 1u) << report.renderText();
    EXPECT_NE(report.renderText().find("log.window"),
              std::string::npos);
}

TEST(LogChecker, FirstEntryAnchoredAtInitialClock)
{
    OrderLog log;
    log.append(0, 1 + kClockWindow, 5); // ambiguous reconstruction
    LintReport report;
    checkLogWellFormed(log, LogCheckOptions{}, report);
    EXPECT_EQ(report.errors(), 1u) << report.renderText();
}

TEST(LogChecker, TraceCrossCheckCatchesWholeEntryTruncation)
{
    const Recording rec = record("fft", 11);
    ASSERT_TRUE(rec.completed);

    // Drop one whole trailing entry: framing stays valid, so only the
    // trace cross-check can notice.
    std::vector<std::uint8_t> clipped = rec.wireLog;
    clipped.resize(clipped.size() - OrderLog::kEntryWireBytes);

    LintInput in;
    in.wireLog = &clipped;
    in.trace = &rec.trace;
    in.audit = false;
    const LintReport report = runLint(in);
    EXPECT_GE(report.errors(), 1u) << report.renderText();
    EXPECT_NE(report.renderText().find("log.trace"), std::string::npos);
}

TEST(Findings, RenderingAndCounts)
{
    LintReport report;
    report.markChecked("log.decode");
    report.error("log.decode", "bad \"framing\"\n");
    report.warning("log.window", "close to the edge");
    report.info("audit.coverage", "77% of pairs");
    report.setMetric("audit.pairCoverage", 0.77);

    EXPECT_EQ(report.errors(), 1u);
    EXPECT_EQ(report.warnings(), 1u);
    EXPECT_FALSE(report.clean());

    const std::string text = report.renderText();
    EXPECT_NE(text.find("[error] log.decode"), std::string::npos);
    EXPECT_NE(text.find("FAIL"), std::string::npos);

    const std::string json = report.renderJson();
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(json.find("\\\"framing\\\"\\n"), std::string::npos);
    EXPECT_NE(json.find("\"pass\": false"), std::string::npos);
}

TEST(Lint, WorksWithoutTrace)
{
    const Recording rec = record("fft", 11);
    ASSERT_TRUE(rec.completed);
    LintInput in;
    in.wireLog = &rec.wireLog;
    const LintReport report = runLint(in);
    EXPECT_TRUE(report.clean()) << report.renderText();
    EXPECT_EQ(report.metrics().count("audit.pairCoverage"), 0u)
        << "audit must be skipped without a trace";
}

TEST(Lint, CordRunWithoutWireFormReportsWindow)
{
    // At D = 256 a clean water-n2 run logs a clock jump that reaches
    // the 16-bit window, so its log has no wire encoding: lintCordRun
    // must lint it in memory and report log.window, not die encoding.
    CordConfig cc;
    cc.d = 256;
    CordDetector cord(cc);
    TraceRecorder trace;
    RunSetup setup;
    setup.workload = "water-n2";
    setup.params.scale = 2;
    setup.detectors = {&cord, &trace};
    ASSERT_TRUE(runWorkload(setup).completed);
    ASSERT_FALSE(isWireEncodable(cord.orderLog()));

    const LintReport report = lintCordRun(cord, trace.trace());
    EXPECT_GE(report.errors(), 1u);
    EXPECT_NE(report.renderText().find("[error] log.window"),
              std::string::npos)
        << report.renderText();
}

/** FNV-1a over the bytes of @p s. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(LintGolden, ReportsAreStable)
{
    // Pins the rendered JSON report of four lint inputs: the fft
    // seed-11 order log and trace with and without the audit, the
    // in-memory lint of a racy cholesky injection (cordsim --workload
    // cholesky --inject 0:5 --lint), and a log-only lint against a
    // declared thread count.
    const Recording fft = record("fft", 11);
    ASSERT_TRUE(fft.completed);

    RunSetup setup;
    setup.workload = "cholesky";
    CordDetector cord(CordConfig::forMachine(setup.machine, 4));
    TraceRecorder trace;
    RemoveOneInstance filter({0, 5});
    setup.filter = &filter;
    setup.maxTicks = 2000000000ULL;
    setup.detectors = {&cord, &trace};
    ASSERT_TRUE(runWorkload(setup).completed);

    std::vector<std::pair<const char *, LintReport>> reports;
    {
        LintInput in;
        in.wireLog = &fft.wireLog;
        in.trace = &fft.trace;
        reports.emplace_back("fft-audit", runLint(in));
        in.audit = false;
        reports.emplace_back("fft-no-audit", runLint(in));
    }
    reports.emplace_back("cholesky-inject",
                         lintCordRun(cord, trace.trace()));
    {
        LintInput in;
        in.wireLog = &fft.wireLog;
        in.numThreads = 4;
        reports.emplace_back("fft-log-only", runLint(in));
    }
    EXPECT_GT(reports[2].second.metrics().at("audit.idealPairs"), 0.0);

    const std::uint64_t expected[] = {
        0xe1e04541609c5a5eULL,
        0xd423d099bd779800ULL,
        0xfe757c883c3051c0ULL,
        0x97cdb5bedef91443ULL,
    };
    for (std::size_t k = 0; k < reports.size(); ++k) {
        const std::string json = reports[k].second.renderJson();
        EXPECT_EQ(fnv1a(json), expected[k])
            << reports[k].first << ": 0x" << std::hex << fnv1a(json)
            << "\n" << json;
    }
}

} // namespace
} // namespace cord
