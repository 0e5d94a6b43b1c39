/**
 * @file
 * End-to-end tests of the repository's extensions beyond the paper's
 * headline configuration: directory-based coherence (Section 2.5's
 * "straightforward extension") and scheduler-driven thread migration
 * (Section 2.7.4 exercised through the real scheduler).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "cord/replay.h"
#include "harness/runner.h"
#include "mem/timing_mem.h"

namespace cord
{
namespace
{

TEST(Directory, MissLatencyIncludesIndirection)
{
    MachineConfig snoop;
    MachineConfig dir;
    dir.coherence = CoherenceKind::Directory;

    TimingMemSystem sm(snoop);
    TimingMemSystem dm(dir);

    const TimingResult rs = sm.access(0, 0x10000, false, 0);
    const TimingResult rd = dm.access(0, 0x10000, false, 0);
    EXPECT_EQ(rd.completion - rs.completion, dir.directoryLatency)
        << "a directory miss pays the lookup indirection";

    // Cache-to-cache is a three-hop forward in directory mode.
    sm.access(1, 0x10000, false, 1000);
    dm.access(1, 0x10000, false, 1000);
    const TimingResult cs = sm.access(2, 0x10000, false, 2000);
    const TimingResult cd = dm.access(2, 0x10000, false, 2000);
    EXPECT_GT(cd.completion, cs.completion);
    EXPECT_EQ(cd.source, ServiceSource::CacheToCache);
}

TEST(Directory, InvalidationsAreDirectedPerSharer)
{
    MachineConfig dir;
    dir.coherence = CoherenceKind::Directory;
    TimingMemSystem dm(dir);
    // Three sharers, then a write: one directed invalidation each.
    dm.access(0, 0x10000, false, 0);
    dm.access(1, 0x10000, false, 1000);
    dm.access(2, 0x10000, false, 2000);
    // Directory traffic rides the home slice's channel, not the
    // snooping address bus.
    const std::uint64_t txns = dm.sliceBus(0x10000).transactions();
    const std::uint64_t addr = dm.addrBus().transactions();
    dm.access(3, 0x10000, true, 3000);
    EXPECT_EQ(dm.sliceBus(0x10000).transactions(), txns + 1 + 3)
        << "request + one invalidation per sharer";
    EXPECT_EQ(dm.addrBus().transactions(), addr)
        << "no broadcast bus traffic in directory mode";
}

TEST(Directory, WholeWorkloadRunsCleanly)
{
    MachineConfig dir;
    dir.coherence = CoherenceKind::Directory;
    CordConfig cc;
    CordDetector cord(cc);
    IdealDetector ideal(4);
    RunSetup s;
    s.workload = "ocean";
    s.params.seed = 9;
    s.machine = dir;
    s.detectors = {&cord, &ideal};
    const RunOutcome out = runWorkload(s);
    ASSERT_TRUE(out.completed);
    EXPECT_EQ(ideal.races().pairs(), 0u);
    EXPECT_EQ(cord.races().pairs(), 0u);
}

TEST(Directory, ReplayWorksAcrossCoherenceKinds)
{
    // Record under snooping, replay under a directory machine: the
    // order log is coherence-agnostic.
    CordConfig cc;
    CordDetector recorder(cc);
    RunSetup rec;
    rec.workload = "fft";
    rec.params.seed = 31;
    rec.detectors = {&recorder};
    const RunOutcome out = runWorkload(rec);
    ASSERT_TRUE(out.completed);

    RunSetup rep;
    rep.workload = "fft";
    rep.params = rec.params;
    rep.machine.coherence = CoherenceKind::Directory;
    ReplayGate gate(recorder.orderLog(), 4);
    rep.gate = &gate;
    rep.maxTicks = out.ticks * 500 + 10000000;
    const RunOutcome repOut = runWorkload(rep);
    ASSERT_TRUE(repOut.completed);
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(repOut.readChecksums[t], out.readChecksums[t]);
}

TEST(Directory, GeometryMismatchIsRejectedAtSetup)
{
    // A detector sized for the default 4-core machine must be rejected
    // before the run starts on a 16-core machine, not silently
    // under-size its per-core state.
    MachineConfig m;
    m.numCores = 16;
    m.coherence = CoherenceKind::Directory;

    CordConfig cc; // default geometry: kDefaultNumCores
    ASSERT_NE(cc.numCores, m.numCores);
    CordDetector cord(cc);

    RunSetup s;
    s.workload = "fft";
    s.params.numThreads = 4;
    s.machine = m;
    s.detectors = {&cord};
    EXPECT_DEATH(runWorkload(s), "sized for");
}

TEST(Migration, CleanRunStaysSilentWithClockBump)
{
    MachineConfig m;
    m.migrationPeriodInstrs = 400;
    CordConfig cc; // migrationIncrement = true (default)
    CordDetector cord(cc);
    IdealDetector ideal(4);
    RunSetup s;
    s.workload = "water-sp";
    s.params.seed = 3;
    s.machine = m;
    s.detectors = {&cord, &ideal};
    const RunOutcome out = runWorkload(s);
    ASSERT_TRUE(out.completed);
    EXPECT_EQ(ideal.races().pairs(), 0u);
    EXPECT_EQ(cord.races().pairs(), 0u)
        << "migration must not cause false positives (Section 2.7.4)";
    EXPECT_GT(cord.stats().get("cord.migrationBumps"), 0u)
        << "the scheduler actually migrated threads";
}

TEST(Migration, WithoutBumpSelfRacesAppear)
{
    MachineConfig m;
    m.migrationPeriodInstrs = 400;
    CordConfig cc;
    cc.migrationIncrement = false; // ablation: disable the fix
    CordDetector cord(cc);
    IdealDetector ideal(4);
    RunSetup s;
    s.workload = "water-sp";
    s.params.seed = 3;
    s.machine = m;
    s.detectors = {&cord, &ideal};
    const RunOutcome out = runWorkload(s);
    ASSERT_TRUE(out.completed);
    EXPECT_EQ(ideal.races().pairs(), 0u) << "the run itself is clean";
    EXPECT_GT(cord.races().pairs(), 0u)
        << "without the bump a migrated thread races with its own "
           "stale timestamps";
}

TEST(Migration, ExecutionStillCompletesUnderFrequentMigration)
{
    MachineConfig m;
    m.migrationPeriodInstrs = 64; // very aggressive
    RunSetup s;
    s.workload = "radix";
    s.params.seed = 11;
    s.machine = m;
    const RunOutcome out = runWorkload(s);
    EXPECT_TRUE(out.completed);
}

} // namespace
} // namespace cord
