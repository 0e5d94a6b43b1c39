/**
 * @file
 * Tests for the overhead-attribution profiler (obs/profiler.h) and the
 * runProfile decomposition driver (harness/experiments.h): scope
 * activation, exact cycle attribution, the decomposition's
 * sums-to-measured-overhead invariant on several workloads, and the
 * guarantee that an active profiler never perturbs simulated timing.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/experiments.h"
#include "harness/runner.h"
#include "obs/manifest.h"
#include "obs/profiler.h"

namespace cord
{
namespace
{

TEST(Profiler, InactiveByDefault)
{
    EXPECT_EQ(Profiler::active(), nullptr);
}

TEST(Profiler, ScopeActivatesAndRestoresNesting)
{
    Profiler outer;
    {
        ProfilerScope s(outer);
        EXPECT_EQ(Profiler::active(), &outer);
        {
            Profiler inner;
            ProfilerScope s2(inner);
            EXPECT_EQ(Profiler::active(), &inner);
        }
        EXPECT_EQ(Profiler::active(), &outer);
    }
    EXPECT_EQ(Profiler::active(), nullptr);
}

TEST(Profiler, CyclesAccumulateExactlyPerDomain)
{
    Profiler p;
    EXPECT_FALSE(p.anyRecorded());
    p.addCycles(ProfDomain::CordCheck, 7);
    p.addCycles(ProfDomain::CordCheck, 3);
    p.addCycles(ProfDomain::BusArbitration, 5);
    EXPECT_EQ(p.cycles(ProfDomain::CordCheck), 10u);
    EXPECT_EQ(p.calls(ProfDomain::CordCheck), 2u);
    EXPECT_EQ(p.cycles(ProfDomain::BusArbitration), 5u);
    EXPECT_EQ(p.calls(ProfDomain::BusArbitration), 1u);
    EXPECT_EQ(p.cycles(ProfDomain::MemService), 0u);
    EXPECT_EQ(p.calls(ProfDomain::MemService), 0u);
    EXPECT_TRUE(p.anyRecorded());
    p.clear();
    EXPECT_FALSE(p.anyRecorded());
    EXPECT_EQ(p.cycles(ProfDomain::CordCheck), 0u);
}

TEST(Profiler, DomainNamesAndKeysAreStable)
{
    // The keys name the "profile.<key>.*" manifest metrics.
    ASSERT_EQ(kProfDomains, 5u);
    EXPECT_STREQ(profDomainKey(ProfDomain::BusArbitration),
                 "busArbitration");
    EXPECT_STREQ(profDomainKey(ProfDomain::MemService), "memService");
    EXPECT_STREQ(profDomainKey(ProfDomain::CordCheck), "cordCheck");
    EXPECT_STREQ(profDomainKey(ProfDomain::CordTimestamp),
                 "cordTimestamp");
    EXPECT_STREQ(profDomainKey(ProfDomain::CordHistory), "cordHistory");
}

TEST(Profiler, ExportWritesNonZeroDomainsOnly)
{
    Profiler p;
    p.addCycles(ProfDomain::CordCheck, 42);
    StatRegistry reg;
    exportProfileStats(p, reg);
    EXPECT_EQ(reg.get("profile.cordCheck.cycles"), 42u);
    EXPECT_EQ(reg.get("profile.cordCheck.calls"), 1u);
    EXPECT_FALSE(reg.has("profile.memService.cycles"));
}

/** Small-but-real profile configuration for one workload. */
ProfileReport
profileOf(const std::string &workload)
{
    WorkloadParams params;
    params.numThreads = 4;
    params.scale = 4;
    params.seed = 1;
    MachineConfig machine;
    machine.numCores = 4;
    CordConfig cc;
    return runProfile(workload, params, machine, cc);
}

/** The acceptance-criterion invariants, checked per workload. */
void
checkDecomposition(const ProfileReport &r)
{
    SCOPED_TRACE(r.workload);
    EXPECT_GT(r.baselineTicks, 0u);
    EXPECT_GE(r.cordTicks, r.baselineTicks);
    EXPECT_EQ(r.overheadTicks, r.cordTicks - r.baselineTicks);

    // check / timestamp / history / log, in that order.
    ASSERT_EQ(r.mechanisms.size(), 4u);
    EXPECT_EQ(r.mechanisms[0].key, "check");
    EXPECT_EQ(r.mechanisms[1].key, "timestamp");
    EXPECT_EQ(r.mechanisms[2].key, "history");
    EXPECT_EQ(r.mechanisms[3].key, "log");

    double overheadSum = 0, shareSum = 0;
    for (const ProfileMechanism &m : r.mechanisms) {
        overheadSum += m.overheadTicks;
        shareSum += m.share;
        EXPECT_GE(m.share, 0.0);
        EXPECT_LE(m.share, 1.0);
    }
    // The decomposition must sum to the measured CORD-vs-Ideal
    // overhead within 1% (acceptance criterion; by construction the
    // error is only floating-point noise).
    const double total = static_cast<double>(r.overheadTicks);
    EXPECT_NEAR(overheadSum, total, std::max(1.0, 0.01 * total));
    EXPECT_NEAR(shareSum, 1.0, 1e-9);

    // The race-check path dominates any real workload, and the order
    // log always costs something once any entry was appended.
    EXPECT_GT(r.mechanisms[0].share, 0.0);
    EXPECT_GT(r.mechanisms[0].events, 0u);
    EXPECT_GT(r.logWireBytes, 0u);
    EXPECT_GT(r.mechanisms[3].share, 0.0);
}

TEST(RunProfile, DecompositionSumsToMeasuredOverheadFft)
{
    checkDecomposition(profileOf("fft"));
}

TEST(RunProfile, DecompositionSumsToMeasuredOverheadLu)
{
    checkDecomposition(profileOf("lu"));
}

TEST(RunProfile, DecompositionSumsToMeasuredOverheadRadix)
{
    checkDecomposition(profileOf("radix"));
}

TEST(RunProfile, IsDeterministicAcrossRepeats)
{
    const ProfileReport a = profileOf("fft");
    const ProfileReport b = profileOf("fft");
    EXPECT_EQ(a.baselineTicks, b.baselineTicks);
    EXPECT_EQ(a.cordTicks, b.cordTicks);
    EXPECT_EQ(a.logWireBytes, b.logWireBytes);
    for (std::size_t i = 0; i < a.mechanisms.size(); ++i) {
        EXPECT_EQ(a.mechanisms[i].cycles, b.mechanisms[i].cycles);
        EXPECT_EQ(a.mechanisms[i].events, b.mechanisms[i].events);
    }
}

TEST(RunProfile, ManifestMetricsRoundTrip)
{
    const ProfileReport r = profileOf("fft");
    RunManifest m;
    m.tool = "test";
    addProfileMetrics(m, r);
    const StatRegistry &flat = m.metrics.flat();
    EXPECT_EQ(flat.get("profile.fft.overhead.baselineTicks"),
              r.baselineTicks);
    EXPECT_EQ(flat.get("profile.fft.overhead.cordTicks"), r.cordTicks);
    EXPECT_EQ(flat.get("profile.fft.overhead.totalTicks"),
              r.overheadTicks);
    EXPECT_EQ(flat.get("profile.fft.log.wireBytes"), r.logWireBytes);
    EXPECT_EQ(flat.get("profile.fft.mech.check.cycles"),
              r.mechanisms[0].cycles);
    std::uint64_t overheadSum = 0;
    for (const char *k : {"check", "timestamp", "history", "log"})
        overheadSum += flat.get("profile.fft.mech." + std::string(k) +
                                ".overheadTicks");
    // Integer rounding of four prorated terms: within 1% (and in fact
    // within 2 ticks) of the measured total.
    EXPECT_NEAR(static_cast<double>(overheadSum),
                static_cast<double>(r.overheadTicks),
                std::max(2.0, 0.01 * r.overheadTicks));
}

/** An active profiler observes; it must never change simulated time. */
TEST(RunProfile, ActiveProfilerDoesNotPerturbSimulation)
{
    RunSetup setup;
    setup.workload = "fft";
    setup.params.numThreads = 4;
    setup.params.scale = 4;
    setup.params.seed = 1;

    const RunOutcome plain = runWorkload(setup);

    Profiler p;
    RunOutcome profiled;
    {
        ProfilerScope ps(p);
        profiled = runWorkload(setup);
    }
    EXPECT_EQ(plain.ticks, profiled.ticks);
    EXPECT_EQ(plain.accesses, profiled.accesses);
    EXPECT_EQ(plain.interleavingSignature,
              profiled.interleavingSignature);
    EXPECT_TRUE(p.anyRecorded());
    // The profiled run's stats carry the profile.* export; the plain
    // run's stats must not (golden manifests stay untouched).
    EXPECT_TRUE(profiled.stats.has("profile.memService.cycles"));
    EXPECT_FALSE(plain.stats.has("profile.memService.cycles"));
}

} // namespace
} // namespace cord
