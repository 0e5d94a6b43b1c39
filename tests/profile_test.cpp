/**
 * @file
 * Tests for the runProfile overhead decomposition
 * (harness/experiments.h): the sums-to-measured-overhead invariant on
 * several workloads, determinism, and the manifest metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiments.h"
#include "obs/manifest.h"

namespace cord
{
namespace
{

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

} // namespace
} // namespace cord
