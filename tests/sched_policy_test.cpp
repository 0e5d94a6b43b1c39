/**
 * @file
 * Unit tests for the schedule-exploration policy layer (src/sched):
 * the CSL1 schedule-log codec (including error paths), replay
 * divergence accounting, policy determinism, PCT priority mechanics,
 * and the factory's seed-derivation contract.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sched/factory.h"
#include "sched/pct.h"
#include "sched/perturb.h"
#include "sched/policy.h"
#include "sched/replay.h"
#include "sched/sched_log.h"
#include "sim/rng.h"

namespace cord
{
namespace
{

ScheduleLog
sampleLog()
{
    ScheduleLog log;
    log.push(SchedPoint::Pick, 0);
    log.push(SchedPoint::Delay, 0);
    log.push(SchedPoint::Pick, 3);
    log.push(SchedPoint::Delay, 997);
    log.push(SchedPoint::Pick, 1);
    log.policyKind = static_cast<std::uint64_t>(SchedKind::Perturb);
    log.seed = 0x1234567890abcdefULL;
    log.numThreads = 8;
    log.signature = 0xfeedfacecafebeefULL;
    return log;
}

TEST(ScheduleLogCodec, RoundTrip)
{
    const ScheduleLog log = sampleLog();
    const std::vector<std::uint8_t> bytes = encodeScheduleLog(log);

    ScheduleLog back;
    std::string err;
    ASSERT_TRUE(decodeScheduleLog(bytes, back, &err)) << err;
    EXPECT_EQ(back.policyKind, log.policyKind);
    EXPECT_EQ(back.seed, log.seed);
    EXPECT_EQ(back.numThreads, log.numThreads);
    EXPECT_EQ(back.signature, log.signature);
    ASSERT_EQ(back.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(back.entries()[i].point, log.entries()[i].point) << i;
        EXPECT_EQ(back.entries()[i].value, log.entries()[i].value) << i;
    }
}

TEST(ScheduleLogCodec, EmptyLogRoundTrips)
{
    ScheduleLog log;
    ScheduleLog back;
    ASSERT_TRUE(decodeScheduleLog(encodeScheduleLog(log), back));
    EXPECT_TRUE(back.empty());
}

TEST(ScheduleLogCodec, TypicalDecisionCostsOneByte)
{
    // Header is 4 magic bytes + 5 small varints + count; each small
    // decision must then add exactly one byte (the compactness claim
    // the wire format makes).
    ScheduleLog log;
    const std::size_t base = encodeScheduleLog(log).size();
    for (int i = 0; i < 10; ++i)
        log.push(SchedPoint::Pick, 1);
    EXPECT_EQ(encodeScheduleLog(log).size(), base + 10);
}

TEST(ScheduleLogCodec, RejectsBadMagic)
{
    std::vector<std::uint8_t> bytes = encodeScheduleLog(sampleLog());
    bytes[0] = 'X';
    ScheduleLog out;
    std::string err;
    EXPECT_FALSE(decodeScheduleLog(bytes, out, &err));
    EXPECT_FALSE(err.empty());
}

TEST(ScheduleLogCodec, RejectsTruncation)
{
    const std::vector<std::uint8_t> full =
        encodeScheduleLog(sampleLog());
    // Every strict prefix must fail, never crash or succeed.
    for (std::size_t len = 0; len < full.size(); ++len) {
        std::vector<std::uint8_t> cut(full.begin(), full.begin() + len);
        ScheduleLog out;
        EXPECT_FALSE(decodeScheduleLog(cut, out)) << "prefix " << len;
    }
}

TEST(ScheduleLogCodec, RejectsTrailingBytes)
{
    std::vector<std::uint8_t> bytes = encodeScheduleLog(sampleLog());
    bytes.push_back(0);
    ScheduleLog out;
    EXPECT_FALSE(decodeScheduleLog(bytes, out));
}

TEST(ScheduleLogCodec, SaveLoadRoundTrip)
{
    const std::string path =
        testing::TempDir() + "sched_policy_test.schedlog";
    const ScheduleLog log = sampleLog();
    saveScheduleLog(log, path);

    ScheduleLog back;
    std::string err;
    ASSERT_TRUE(loadScheduleLog(path, back, &err)) << err;
    EXPECT_EQ(back.signature, log.signature);
    EXPECT_EQ(back.size(), log.size());
    std::remove(path.c_str());
}

TEST(ScheduleLogCodec, LoadMissingFileFails)
{
    ScheduleLog out;
    std::string err;
    EXPECT_FALSE(loadScheduleLog(
        testing::TempDir() + "definitely_missing.schedlog", out, &err));
    EXPECT_FALSE(err.empty());
}

TEST(ScheduleLogCodec, LoadDirectoryFails)
{
    ScheduleLog out;
    std::string err;
    EXPECT_FALSE(loadScheduleLog(testing::TempDir(), out, &err));
    EXPECT_NE(err.find("cannot read"), std::string::npos) << err;
}

TEST(SchedReplay, ExactConsumptionHasZeroDivergence)
{
    ScheduleLog log;
    log.push(SchedPoint::Pick, 2);
    log.push(SchedPoint::Delay, 7);
    log.push(SchedPoint::Pick, 0);

    SchedReplayPolicy replay(log);
    const std::vector<ThreadId> cands = {0, 1, 2};
    EXPECT_EQ(replay.pickThread(0, cands), 2u);
    EXPECT_EQ(replay.memDelay(0, 0x40, false), 7u);
    EXPECT_EQ(replay.pickThread(1, cands), 0u);
    EXPECT_EQ(replay.divergence(), 0u);
    EXPECT_EQ(replay.remaining(), 0u);
    EXPECT_EQ(replay.totalDivergence(), 0u);
}

TEST(SchedReplay, KindMismatchCounts)
{
    ScheduleLog log;
    log.push(SchedPoint::Delay, 5);
    SchedReplayPolicy replay(log);
    // Engine asks for a pick but the log recorded a delay.
    EXPECT_EQ(replay.pickThread(0, {0, 1}), 0u);
    EXPECT_EQ(replay.divergence(), 1u);
}

TEST(SchedReplay, OutOfRangePickCounts)
{
    ScheduleLog log;
    log.push(SchedPoint::Pick, 9);
    SchedReplayPolicy replay(log);
    EXPECT_EQ(replay.pickThread(0, {0, 1}), 0u);
    EXPECT_EQ(replay.divergence(), 1u);
}

TEST(SchedReplay, ExhaustedLogCounts)
{
    ScheduleLog log;
    SchedReplayPolicy replay(log);
    EXPECT_EQ(replay.memDelay(0, 0, true), 0u);
    EXPECT_EQ(replay.pickThread(0, {0, 1}), 0u);
    EXPECT_EQ(replay.totalDivergence(), 2u);
}

TEST(SchedReplay, UnconsumedDecisionsCount)
{
    ScheduleLog log;
    log.push(SchedPoint::Pick, 0);
    log.push(SchedPoint::Pick, 1);
    SchedReplayPolicy replay(log);
    EXPECT_EQ(replay.pickThread(0, {0, 1}), 0u);
    EXPECT_EQ(replay.divergence(), 0u);
    EXPECT_EQ(replay.remaining(), 1u);
    EXPECT_EQ(replay.totalDivergence(), 1u);
}

TEST(Baseline, IdentityDecisions)
{
    BaselinePolicy p;
    p.begin(4, 2);
    EXPECT_STREQ(p.name(), "baseline");
    EXPECT_EQ(p.pickThread(0, {3, 1, 2}), 0u);
    EXPECT_EQ(p.memDelay(1, 0x1000, true), 0u);
    EXPECT_EQ(p.memDelay(1, 0x1000, false), 0u);
}

TEST(Perturb, DeterministicForFixedSeed)
{
    PerturbConfig cfg;
    PerturbPolicy a(cfg, 42), b(cfg, 42);
    a.begin(4, 2);
    b.begin(4, 2);
    const std::vector<ThreadId> cands = {0, 1, 2, 3};
    for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(a.pickThread(i % 2, cands), b.pickThread(i % 2, cands));
        ASSERT_EQ(a.memDelay(0, i * 8, i % 5 == 0),
                  b.memDelay(0, i * 8, i % 5 == 0));
    }
}

TEST(Perturb, DifferentSeedsDiverge)
{
    PerturbConfig cfg;
    PerturbPolicy a(cfg, 1), b(cfg, 2);
    const std::vector<ThreadId> cands = {0, 1, 2, 3};
    int same = 0;
    const int kQueries = 500;
    for (int i = 0; i < kQueries; ++i)
        same += a.memDelay(0, i * 8, true) == b.memDelay(0, i * 8, true);
    EXPECT_LT(same, kQueries);
}

TEST(Perturb, DelaysAreBounded)
{
    PerturbConfig cfg;
    cfg.pSyncDelay = 1.0;
    cfg.maxDelay = 25;
    PerturbPolicy p(cfg, 7);
    for (int i = 0; i < 500; ++i) {
        const Tick d = p.memDelay(0, i * 8, true);
        ASSERT_GE(d, 1u);
        ASSERT_LE(d, 25u);
    }
}

TEST(Perturb, PicksStayInRange)
{
    PerturbConfig cfg;
    cfg.pPick = 1.0;
    PerturbPolicy p(cfg, 11);
    const std::vector<ThreadId> cands = {5, 6, 7};
    for (int i = 0; i < 500; ++i)
        ASSERT_LT(p.pickThread(0, cands), cands.size());
}

TEST(Pct, PrioritiesAreDistinct)
{
    PctConfig cfg;
    PctPolicy p(cfg, 99);
    p.begin(8, 4);
    std::vector<std::uint64_t> prios;
    for (ThreadId t = 0; t < 8; ++t)
        prios.push_back(p.priority(t));
    std::sort(prios.begin(), prios.end());
    for (std::size_t i = 1; i < prios.size(); ++i)
        EXPECT_NE(prios[i - 1], prios[i]);
    // All initial priorities sit above every change-point target.
    EXPECT_GT(prios.front(), cfg.changePoints);
}

TEST(Pct, PicksHighestPriorityCandidate)
{
    PctConfig cfg;
    cfg.changePoints = 0; // no change points: priorities are static
    cfg.yieldAfter = 0;   // no starvation escape in this unit test
    PctPolicy p(cfg, 5);
    p.begin(4, 1);
    const std::vector<ThreadId> cands = {0, 1, 2, 3};
    ThreadId best = 0;
    for (ThreadId t = 1; t < 4; ++t)
        if (p.priority(t) > p.priority(best))
            best = t;
    for (int i = 0; i < 50; ++i)
        ASSERT_EQ(cands[p.pickThread(0, cands)], best);
}

TEST(Pct, ChangePointDropsRunningThread)
{
    PctConfig cfg;
    cfg.changePoints = 1;
    cfg.horizon = 1; // the single change point fires at step 1
    cfg.yieldAfter = 0;
    PctPolicy p(cfg, 123);
    p.begin(3, 1);
    const std::vector<ThreadId> cands = {0, 1, 2};
    ThreadId initialBest = 0;
    for (ThreadId t = 1; t < 3; ++t)
        if (p.priority(t) > p.priority(initialBest))
            initialBest = t;
    p.pickThread(0, cands);
    // The change point demoted the then-best thread below everyone.
    EXPECT_EQ(p.priority(initialBest), 1u);
    for (ThreadId t = 0; t < 3; ++t)
        if (t != initialBest)
            EXPECT_GT(p.priority(t), p.priority(initialBest));
}

TEST(Pct, StarvationEscapeYields)
{
    PctConfig cfg;
    cfg.changePoints = 0;
    cfg.yieldAfter = 4;
    PctPolicy p(cfg, 77);
    p.begin(2, 1);
    const std::vector<ThreadId> cands = {0, 1};
    const ThreadId high = p.priority(0) > p.priority(1) ? 0 : 1;
    const ThreadId low = high == 0 ? 1 : 0;
    // The high-priority thread wins yieldAfter decisions in a row,
    // then the core yields one decision to the starved thread.
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(cands[p.pickThread(0, cands)], high) << i;
    EXPECT_EQ(cands[p.pickThread(0, cands)], low);
    // And PCT order resumes afterwards.
    EXPECT_EQ(cands[p.pickThread(0, cands)], high);
}

TEST(Pct, DeterministicForFixedSeed)
{
    PctConfig cfg;
    PctPolicy a(cfg, 31), b(cfg, 31);
    a.begin(6, 2);
    b.begin(6, 2);
    const std::vector<ThreadId> cands = {0, 1, 2, 3, 4, 5};
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.pickThread(i % 2, cands), b.pickThread(i % 2, cands));
}

TEST(Factory, KindNamesRoundTrip)
{
    for (SchedKind k :
         {SchedKind::Baseline, SchedKind::Perturb, SchedKind::Pct}) {
        SchedKind back = SchedKind::Baseline;
        ASSERT_TRUE(schedKindFromName(schedKindName(k), back));
        EXPECT_EQ(back, k);
    }
    SchedKind out;
    EXPECT_FALSE(schedKindFromName("bogus", out));
    EXPECT_FALSE(schedKindFromName("", out));
}

TEST(Factory, ScheduleSeedMatchesContract)
{
    // The documented contract: nested deriveSeed through the schedule
    // stream tag, then run index, then schedule index.
    const std::uint64_t S = 0xC0FFEE;
    EXPECT_EQ(scheduleSeed(S, 3, 7),
              Rng::deriveSeed(
                  Rng::deriveSeed(Rng::deriveSeed(S, kSchedStreamTag), 3),
                  7));
    // Distinct (run, schedule) tuples map to distinct seeds, and the
    // pick stream is disjoint from every schedule stream.
    EXPECT_NE(scheduleSeed(S, 0, 1), scheduleSeed(S, 1, 0));
    EXPECT_NE(scheduleSeed(S, 0, 1), scheduleSeed(S, 0, 2));
    EXPECT_NE(scheduleSeed(S, 0, 1),
              Rng::deriveSeed(S, kPickStreamTag));
}

TEST(Factory, ScheduleZeroIsAlwaysBaseline)
{
    SchedOptions opts;
    opts.kind = SchedKind::Pct;
    const auto p = makeSchedulePolicy(opts, 1, 0, 0);
    EXPECT_STREQ(p->name(), "baseline");
}

TEST(Factory, BuildsConfiguredFamily)
{
    SchedOptions opts;
    opts.kind = SchedKind::Perturb;
    EXPECT_STREQ(makeSchedulePolicy(opts, 1, 0, 1)->name(), "perturb");
    opts.kind = SchedKind::Pct;
    EXPECT_STREQ(makeSchedulePolicy(opts, 1, 0, 1)->name(), "pct");
    opts.kind = SchedKind::Baseline;
    EXPECT_STREQ(makeSchedulePolicy(opts, 1, 0, 1)->name(), "baseline");
}

} // namespace
} // namespace cord
