/**
 * @file
 * End-to-end tests of schedule exploration (sched/explore.h) and its
 * integration with the harness: the BaselinePolicy byte-identity
 * regression, exact schedule record/replay across workloads, job-count
 * invariance, the campaign schedules axis, CORD order-log replay of a
 * perturbed schedule, a bounded mutation test of the schedule-log
 * decoder on a recorded log, and `cordsim --replay-sched` refusing a
 * delay no policy records.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "cord/log_codec.h"
#include "cord/replay.h"
#include "harness/experiments.h"
#include "harness/runner.h"
#include "obs/manifest.h"
#include "sched/explore.h"
#include "sched/factory.h"
#include "sched/perturb.h"
#include "sched/policy.h"
#include "sched/replay.h"
#include "sched/sched_log.h"
#include "sim/rng.h"

namespace cord
{
namespace
{

/** Small-but-real run shared by the tests below. */
RunSetup
smallSetup(const std::string &app, std::uint64_t seed)
{
    RunSetup setup;
    setup.workload = app;
    setup.params.numThreads = 4;
    setup.params.scale = 1;
    setup.params.seed = seed;
    return setup;
}

RunManifest
manifestFrom(const RunOutcome &out)
{
    RunManifest m;
    m.tool = "sched_explore_test";
    m.completed = out.completed;
    m.simTicks = out.ticks;
    m.metrics.add("", out.stats);
    return m;
}

TEST(BaselineEquivalence, PolicyRunMatchesNoPolicyRun)
{
    // The acceptance criterion of the sched layer: attaching
    // BaselinePolicy must be bit-identical to attaching nothing --
    // same simulated time, same observed values, same interleaving,
    // and a byte-identical manifest.
    for (const std::string app : {"fft", "lu", "radix"}) {
        RunSetup plain = smallSetup(app, 5);
        const RunOutcome a = runWorkload(plain);
        ASSERT_TRUE(a.completed) << app;

        BaselinePolicy baseline;
        ScheduleLog log;
        RunSetup withPolicy = smallSetup(app, 5);
        withPolicy.sched = &baseline;
        withPolicy.recordSched = &log;
        const RunOutcome b = runWorkload(withPolicy);
        ASSERT_TRUE(b.completed) << app;

        EXPECT_EQ(a.ticks, b.ticks) << app;
        EXPECT_EQ(a.accesses, b.accesses) << app;
        EXPECT_EQ(a.instrs, b.instrs) << app;
        EXPECT_EQ(a.readChecksums, b.readChecksums) << app;
        EXPECT_EQ(a.interleavingSignature, b.interleavingSignature)
            << app;
        EXPECT_EQ(manifestFrom(a).renderJson(false),
                  manifestFrom(b).renderJson(false))
            << app << ": BaselinePolicy changed the run manifest";

        // The baseline run still records a full decision log (zero
        // delays and first-candidate picks), so even the unperturbed
        // schedule is replayable.
        EXPECT_FALSE(log.empty()) << app;
    }
}

TEST(BaselineEquivalence, ScheduleZeroSignatureMatchesPlainRun)
{
    ExploreSpec spec;
    spec.workload = "fft";
    spec.params.numThreads = 4;
    spec.params.scale = 1;
    spec.params.seed = 9;
    spec.schedules = 2;
    const ExploreResult res = exploreSchedules(spec);
    ASSERT_EQ(res.runs.size(), 2u);

    const RunOutcome plain = runWorkload(smallSetup("fft", 9));
    EXPECT_EQ(res.runs[0].signature, plain.interleavingSignature);
    EXPECT_EQ(res.runs[0].ticks, plain.ticks);
}

TEST(BaselineEquivalence, ScheduleZeroCordMatchesPlainRunOnDirectory)
{
    // An explored run's CORD takes its geometry from the machine like
    // every other driver's: on a directory machine that means one
    // memory-timestamp bank per slice, so schedule 0 reports exactly
    // the races of the plain run of the same configuration.
    ExploreSpec spec;
    spec.workload = "barnes";
    spec.params.numThreads = 16;
    spec.params.scale = 1;
    spec.params.seed = 3;
    spec.params.includeKnownRaces = true;
    spec.machine.numCores = 16;
    spec.machine.coherence = CoherenceKind::Directory;
    spec.schedules = 1;
    const ExploreResult res = exploreSchedules(spec);
    ASSERT_EQ(res.runs.size(), 1u);

    RunSetup setup;
    setup.workload = spec.workload;
    setup.params = spec.params;
    setup.machine = spec.machine;
    CordConfig cc = CordConfig::forMachine(setup.machine, 16);
    cc.d = spec.cordD;
    CordDetector cord(cc);
    setup.detectors = {&cord};
    const RunOutcome plain = runWorkload(setup);
    ASSERT_TRUE(plain.completed);
    EXPECT_EQ(res.runs[0].ticks, plain.ticks);
    EXPECT_EQ(res.runs[0].cordRacePairs, cord.races().pairs());
}

class ScheduleReplay : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ScheduleReplay, EveryExploredScheduleReplaysExactly)
{
    // The PR's core guarantee: every explored schedule is exactly
    // reproducible from its recorded log -- zero divergence, same
    // interleaving signature, same observed values.
    const std::string app = GetParam();
    ExploreSpec spec;
    spec.workload = app;
    spec.params.numThreads = 4;
    spec.params.scale = 1;
    spec.params.seed = 13;
    spec.schedules = 3;
    spec.sched.kind = SchedKind::Perturb;

    const ExploreResult res = exploreSchedules(spec);
    ASSERT_EQ(res.runs.size(), spec.schedules);

    for (const ScheduleRun &run : res.runs) {
        if (!run.completed)
            continue; // timeout: partial logs are not replayable
        SchedReplayPolicy replay(run.log);
        const ScheduleRun again =
            runOneSchedule(spec, run.index, replay);
        EXPECT_EQ(replay.totalDivergence(), 0u)
            << app << " schedule " << run.index;
        EXPECT_EQ(again.signature, run.signature)
            << app << " schedule " << run.index;
        EXPECT_EQ(again.ticks, run.ticks)
            << app << " schedule " << run.index;
        EXPECT_EQ(again.readChecksums, run.readChecksums)
            << app << " schedule " << run.index;
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ScheduleReplay,
                         ::testing::Values("fft", "lu", "radix",
                                           "cholesky"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(ScheduleReplayPct, PctScheduleReplaysExactly)
{
    ExploreSpec spec;
    spec.workload = "fft";
    spec.params.numThreads = 4;
    spec.params.scale = 1;
    spec.params.seed = 3;
    spec.schedules = 2;
    spec.sched.kind = SchedKind::Pct;

    const ExploreResult res = exploreSchedules(spec);
    ASSERT_EQ(res.runs.size(), 2u);
    ASSERT_TRUE(res.runs[1].completed);
    EXPECT_EQ(res.runs[1].log.policyKind,
              static_cast<std::uint64_t>(SchedKind::Pct));

    SchedReplayPolicy replay(res.runs[1].log);
    const ScheduleRun again = runOneSchedule(spec, 1, replay);
    EXPECT_EQ(replay.totalDivergence(), 0u);
    EXPECT_EQ(again.signature, res.runs[1].signature);
}

TEST(ScheduleReplayDivergence, WrongConfigurationDiverges)
{
    // Feeding a log recorded under a different machine configuration
    // must be reported as divergence (or at least a signature
    // mismatch), not silently accepted as an exact replay.
    ExploreSpec spec;
    spec.workload = "fft";
    spec.params.numThreads = 4;
    spec.params.scale = 1;
    spec.params.seed = 21;
    spec.schedules = 2;
    spec.sched.kind = SchedKind::Perturb;
    const ExploreResult res = exploreSchedules(spec);
    ASSERT_TRUE(res.runs[1].completed);

    ExploreSpec other = spec;
    // A slower memory reshuffles completion order, so the recorded
    // decision sequence no longer lines up with the queries.
    other.machine.memoryLatency = 60;
    SchedReplayPolicy replay(res.runs[1].log);
    const ScheduleRun again = runOneSchedule(other, 1, replay);
    EXPECT_TRUE(replay.totalDivergence() != 0 ||
                again.signature != res.runs[1].signature)
        << "replay against the wrong run must not look exact";
}

TEST(Explore, DeterministicAcrossJobCounts)
{
    ExploreSpec spec;
    spec.workload = "fft";
    spec.params.numThreads = 4;
    spec.params.scale = 1;
    spec.params.seed = 17;
    spec.schedules = 4;
    spec.sched.kind = SchedKind::Perturb;

    spec.jobs = 1;
    const ExploreResult seq = exploreSchedules(spec);
    spec.jobs = 3;
    const ExploreResult par = exploreSchedules(spec);

    ASSERT_EQ(seq.runs.size(), par.runs.size());
    for (std::size_t i = 0; i < seq.runs.size(); ++i) {
        EXPECT_EQ(seq.runs[i].signature, par.runs[i].signature) << i;
        EXPECT_EQ(seq.runs[i].ticks, par.runs[i].ticks) << i;
        EXPECT_EQ(seq.runs[i].log.size(), par.runs[i].log.size()) << i;
    }
    EXPECT_EQ(seq.distinctSignatures, par.distinctSignatures);
    EXPECT_EQ(seq.racingCum, par.racingCum);
}

TEST(Explore, AggregatesAreConsistent)
{
    ExploreSpec spec;
    spec.workload = "lu";
    spec.params.numThreads = 4;
    spec.params.scale = 1;
    spec.params.seed = 2;
    spec.schedules = 4;
    spec.sched.kind = SchedKind::Perturb;
    const ExploreResult res = exploreSchedules(spec);

    ASSERT_EQ(res.racingCum.size(), spec.schedules);
    for (std::size_t i = 1; i < res.racingCum.size(); ++i)
        EXPECT_GE(res.racingCum[i], res.racingCum[i - 1])
            << "racingCum must be monotonically non-decreasing";
    EXPECT_EQ(res.racingCum.back(), res.racingSchedules);
    EXPECT_EQ(res.completedRuns + res.timeouts, spec.schedules);
    EXPECT_LE(res.distinctSignatures, res.completedRuns);
    EXPECT_GE(res.distinctSignatures,
              res.completedRuns > 0 ? 1u : 0u);
}

TEST(OrderLogUnderSchedule, PerturbedRunReplaysThroughGate)
{
    // CORD's own order log must capture perturbed interleavings just
    // as well as the default one: record a perturbed run's order log,
    // then replay it through the ExecutionGate on an adversarial
    // machine and verify every thread observed the same values.
    CordConfig cc;
    CordDetector recorder(cc);
    PerturbPolicy policy(PerturbConfig{},
                         scheduleSeed(0xC02D, 0, 1));

    RunSetup rec = smallSetup("fft", 11);
    rec.detectors = {&recorder};
    rec.sched = &policy;
    const RunOutcome recOut = runWorkload(rec);
    ASSERT_TRUE(recOut.completed);

    RunSetup rep = smallSetup("fft", 11);
    rep.machine.memoryLatency = 60;
    rep.machine.cacheToCacheLatency = 3;
    rep.machine.l2HitLatency = 2;
    ReplayGate gate(recorder.orderLog(), 4);
    rep.gate = &gate;
    const RunOutcome repOut = runWorkload(rep);
    ASSERT_TRUE(repOut.completed);

    EXPECT_EQ(gate.overrunInstrs(), 0u);
    EXPECT_TRUE(gate.drained());
    EXPECT_EQ(repOut.readChecksums, recOut.readChecksums);
    EXPECT_EQ(repOut.instrs, recOut.instrs);
}

/**
 * Seeded, bounded mutation of a recorded schedule log: bit flips,
 * truncations, splices and an inflated decision count.  Every mutant
 * must decode, or be refused with a message -- never crash, hang or
 * hold more decisions than it has bytes.
 */
TEST(ScheduleLogMutation, EveryMutantDecodesOrIsRefused)
{
    ExploreSpec spec;
    spec.workload = "fft";
    spec.params.numThreads = 4;
    spec.params.scale = 1;
    spec.params.seed = 13;
    spec.schedules = 2;
    spec.sched.kind = SchedKind::Perturb;
    const ExploreResult res = exploreSchedules(spec);
    ASSERT_EQ(res.runs.size(), 2u);
    const ScheduleLog &log = res.runs[1].log;
    ASSERT_FALSE(log.empty());
    const std::vector<std::uint8_t> base = encodeScheduleLog(log);

    // The header ends with the decision count; an empty log with the
    // same metadata encodes exactly that header with a one-byte count.
    ScheduleLog header;
    header.policyKind = log.policyKind;
    header.seed = log.seed;
    header.numThreads = log.numThreads;
    header.signature = log.signature;
    const std::size_t countAt = encodeScheduleLog(header).size() - 1;
    std::vector<std::uint8_t> count;
    putVarint(count, log.size());

    Rng rng(0x5c4ed);
    const std::uint64_t inflated[] = {log.size() + 1, log.size() * 2,
                                      std::uint64_t{1} << 32,
                                      ~std::uint64_t{0} >> 1,
                                      ~std::uint64_t{0}};
    unsigned accepted = 0, refused = 0;
    constexpr unsigned kMutants = 2000;
    for (unsigned i = 0; i < kMutants; ++i) {
        std::vector<std::uint8_t> m = base;
        bool mustFail = false;
        switch (i % 4) {
          case 0: // bit flips
            for (std::uint64_t n = rng.range(1, 8); n > 0; --n)
                m[rng.below(m.size())] ^= 1u << rng.below(8);
            break;
          case 1: // truncation
            m.resize(rng.below(m.size()));
            mustFail = true;
            break;
          case 2: { // splice: a prefix joined to another suffix
            const std::size_t cut = rng.below(base.size() + 1);
            const std::size_t from = rng.below(base.size() + 1);
            m.assign(base.begin(), base.begin() + cut);
            m.insert(m.end(), base.begin() + from, base.end());
            break;
          }
          default: { // decision count larger than the decisions there
            std::vector<std::uint8_t> big;
            putVarint(big, inflated[rng.below(std::size(inflated))]);
            m.erase(m.begin() + countAt,
                    m.begin() + countAt + count.size());
            m.insert(m.begin() + countAt, big.begin(), big.end());
            mustFail = true;
            break;
          }
        }
        ScheduleLog out;
        std::string err;
        if (decodeScheduleLog(m, out, &err)) {
            ++accepted;
            EXPECT_FALSE(mustFail) << "mutant " << i;
            EXPECT_LE(out.size(), m.size()) << "mutant " << i;
        } else {
            ++refused;
            EXPECT_FALSE(err.empty()) << "mutant " << i;
        }
    }
    EXPECT_EQ(accepted + refused, kMutants);
    EXPECT_GT(accepted, 0u); // flips inside a decision stay well framed
    EXPECT_GT(refused, 0u);
}

/** Exit status of shell command @p cmd with stderr folded into @p out
 *  (-1 when it did not exit). */
int
runCommand(const std::string &cmd, std::string &out)
{
    std::FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return -1;
    out.clear();
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe))
        out += buf;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/**
 * A well-framed log whose first Delay is 2^63-1 -- longer than any
 * policy records -- is refused when cordsim loads it (exit 2, naming
 * the decision), not replayed until the watchdog fires.
 */
TEST(ScheduleReplayCli, OversizedDelayIsRefusedAtLoad)
{
    ExploreSpec spec;
    spec.workload = "fft";
    spec.params.numThreads = 4;
    spec.params.scale = 1;
    spec.params.seed = 13;
    spec.schedules = 2;
    spec.sched.kind = SchedKind::Perturb;
    const ExploreResult res = exploreSchedules(spec);
    ASSERT_EQ(res.runs.size(), 2u);
    const ScheduleLog &recorded = res.runs[1].log;

    ScheduleLog log;
    log.policyKind = recorded.policyKind;
    log.seed = recorded.seed;
    log.numThreads = recorded.numThreads;
    log.signature = recorded.signature;
    std::size_t first = recorded.size();
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        ScheduleDecision d = recorded.entries()[i];
        if (first == recorded.size() && d.point == SchedPoint::Delay) {
            first = i;
            d.value = ~std::uint64_t{0} >> 1;
        }
        log.push(d.point, d.value);
    }
    ASSERT_LT(first, recorded.size()) << "the log records no delay";
    const std::string path =
        ::testing::TempDir() + "oversized_delay.schedlog";
    saveScheduleLog(log, path);

    std::string out;
    const auto start = std::chrono::steady_clock::now();
    const int status = runCommand(std::string(CORDSIM_BIN) +
                                      " --replay-sched " + path +
                                      " --workload fft",
                                  out);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    std::remove(path.c_str());
    EXPECT_EQ(status, 2) << out;
    EXPECT_NE(out.find("decision " + std::to_string(first) + " "),
              std::string::npos)
        << out;
    EXPECT_LT(took.count(), 1.0);
}

TEST(CampaignSchedules, SingleScheduleMatchesLegacyCampaign)
{
    // schedules == 1 must leave campaign results exactly as before the
    // schedules axis existed (schedule 0 attaches no policy at all).
    CampaignConfig base;
    base.workload = "fft";
    base.params.numThreads = 4;
    base.params.scale = 1;
    base.injections = 3;
    base.seed = 31;

    CampaignConfig explicitOne = base;
    explicitOne.schedules = 1;
    explicitOne.sched.kind = SchedKind::Pct; // must be inert

    const CampaignResult a = runCampaign(base, {cordSpec(16)});
    const CampaignResult b = runCampaign(explicitOne, {cordSpec(16)});
    EXPECT_EQ(a.manifested, b.manifested);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.idealRawRaces, b.idealRawRaces);
    EXPECT_EQ(a.problems, b.problems);
    EXPECT_EQ(a.rawRaces, b.rawRaces);
    EXPECT_EQ(a.timedOutRuns, b.timedOutRuns);
    ASSERT_EQ(b.manifestedCum.size(), 1u);
    EXPECT_EQ(b.manifestedCum[0], b.manifested);
}

TEST(CampaignSchedules, DeterministicAcrossJobCounts)
{
    CampaignConfig cfg;
    cfg.workload = "fft";
    cfg.params.numThreads = 4;
    cfg.params.scale = 1;
    cfg.injections = 3;
    cfg.schedules = 3;
    cfg.sched.kind = SchedKind::Perturb;
    cfg.seed = 43;

    cfg.jobs = 1;
    const CampaignResult seq = runCampaign(cfg, {cordSpec(16)});
    cfg.jobs = 4;
    const CampaignResult par = runCampaign(cfg, {cordSpec(16)});

    EXPECT_EQ(seq.manifested, par.manifested);
    EXPECT_EQ(seq.manifestedCum, par.manifestedCum);
    EXPECT_EQ(seq.distinctSignatures, par.distinctSignatures);
    EXPECT_EQ(seq.timeouts, par.timeouts);
    EXPECT_EQ(seq.timedOutRuns, par.timedOutRuns);
    EXPECT_EQ(seq.problems, par.problems);
    EXPECT_EQ(seq.rawRaces, par.rawRaces);
    EXPECT_EQ(seq.scheduleRuns, par.scheduleRuns);
}

TEST(CampaignSchedules, CumulativeCurveIsMonotone)
{
    CampaignConfig cfg;
    cfg.workload = "fft";
    cfg.params.numThreads = 4;
    cfg.params.scale = 1;
    cfg.injections = 4;
    cfg.schedules = 3;
    cfg.sched.kind = SchedKind::Perturb;
    cfg.seed = 77;
    const CampaignResult r = runCampaign(cfg, {});

    ASSERT_EQ(r.manifestedCum.size(), cfg.schedules);
    for (std::size_t i = 1; i < r.manifestedCum.size(); ++i)
        EXPECT_GE(r.manifestedCum[i], r.manifestedCum[i - 1]);
    EXPECT_EQ(r.manifestedCum.back(), r.manifested);
    EXPECT_LE(r.manifested, r.injections);
    // Exploring more schedules can only widen what a campaign saw:
    // every injection contributes at least the baseline schedule, so
    // with all schedules counted the curve starts at the legacy
    // single-schedule manifestation count.
    CampaignConfig one = cfg;
    one.schedules = 1;
    const CampaignResult legacy = runCampaign(one, {});
    EXPECT_EQ(r.manifestedCum.front(), legacy.manifested);
    EXPECT_GE(r.manifested, legacy.manifested);
}

} // namespace
} // namespace cord
