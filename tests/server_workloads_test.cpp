/**
 * @file
 * Server-family workload tests beyond the generic per-app suite in
 * workloads_test.cpp: traffic stats surfaced through run outcomes,
 * overload behaviour (drops at the bounded ring), and the campaign
 * determinism contract at non-default offered loads -- byte-identical
 * manifests for any --jobs value even though the server tier runs on
 * the jittered-spin runtime path.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiments.h"
#include "harness/runner.h"
#include "obs/manifest.h"
#include "workloads/workload.h"

namespace cord
{
namespace
{

RunOutcome
runServerApp(const std::string &app, unsigned load, std::uint64_t seed)
{
    RunSetup setup;
    setup.workload = app;
    setup.params.numThreads = 4;
    setup.params.scale = 1;
    setup.params.seed = seed;
    setup.params.loadPercent = load;
    return runWorkload(setup);
}

TEST(ServerWorkloads, EveryAppExportsTrafficStats)
{
    for (const std::string &app : workloadNames("server")) {
        const RunOutcome out = runServerApp(app, 100, 17);
        ASSERT_TRUE(out.completed) << app;
        const std::uint64_t completed =
            out.stats.get("server.requests.completed");
        EXPECT_GT(completed, 0u) << app << ": no requests completed";
        EXPECT_GE(out.stats.get("server.requests.arrived"), completed)
            << app;
        EXPECT_EQ(out.stats.get("server.loadPercent"), 100u) << app;
        EXPECT_EQ(out.stats.histogram("server.latencyTicks").count,
                  completed)
            << app << ": latency histogram disagrees with completions";
    }
}

TEST(ServerWorkloads, LatencyTailGrowsWithOfferedLoad)
{
    // Open-loop arrivals: at 8x nominal load the kvstore's p99 must sit
    // clearly above the 25%-load tail -- queueing delay is part of the
    // measured latency, exactly like a load generator against a real
    // server.
    const RunOutcome light = runServerApp("kvstore", 25, 21);
    const RunOutcome heavy = runServerApp("kvstore", 800, 21);
    ASSERT_TRUE(light.completed);
    ASSERT_TRUE(heavy.completed);
    const double p99Light =
        light.stats.histogram("server.latencyTicks").quantile(0.99);
    const double p99Heavy =
        heavy.stats.histogram("server.latencyTicks").quantile(0.99);
    EXPECT_GT(p99Heavy, p99Light)
        << "offered load did not move the latency tail";
}

TEST(ServerWorkloads, EventLoopDropsWhenTheRingOverflows)
{
    // The event loop's ring holds 16 events; at extreme offered load
    // bursts outrun the consumers and arrivals must be dropped and
    // counted, not silently lost (arrived == completed + dropped).
    RunOutcome out = runServerApp("eventloop", 3000, 9);
    ASSERT_TRUE(out.completed);
    const std::uint64_t arrived =
        out.stats.get("server.requests.arrived");
    const std::uint64_t completed =
        out.stats.get("server.requests.completed");
    const std::uint64_t dropped =
        out.stats.get("server.requests.dropped");
    EXPECT_GT(dropped, 0u) << "overload produced no drops";
    EXPECT_EQ(arrived, completed + dropped);
}

TEST(ServerWorkloads, RunsAreDeterministicPerSeed)
{
    for (const std::string &app : workloadNames("server")) {
        const RunOutcome a = runServerApp(app, 200, 33);
        const RunOutcome b = runServerApp(app, 200, 33);
        ASSERT_TRUE(a.completed) << app;
        EXPECT_EQ(a.ticks, b.ticks) << app;
        for (unsigned t = 0; t < 4; ++t)
            EXPECT_EQ(a.readChecksums[t], b.readChecksums[t])
                << app << " thread " << t;
    }
}

TEST(ServerWorkloads, PacingCostsFewKernelEventsPerAccess)
{
    // The open-loop pacer waits for each arrival with one SpinUntil op.
    // A pacer that closes in on the arrival with a series of compute
    // ops (about 19 a wait) reads above 5 kernel events per committed
    // access on kvstore and rcureg here.
    for (const char *app : {"kvstore", "eventloop", "rcureg"}) {
        RunSetup setup;
        setup.workload = app;
        setup.params.numThreads = 4;
        setup.params.scale = 4;
        setup.params.seed = 1;
        setup.params.loadPercent = 200;
        const RunOutcome out = runWorkload(setup);
        ASSERT_TRUE(out.completed) << app;
        ASSERT_GT(out.accesses, 0u) << app;
        EXPECT_LE(static_cast<double>(out.events) /
                      static_cast<double>(out.accesses),
                  3.0)
            << app << ": " << out.events << " events for "
            << out.accesses << " accesses";
    }
}

std::string
serverCampaignManifest(const std::string &app, unsigned load,
                       unsigned jobs)
{
    CampaignConfig cfg;
    cfg.workload = app;
    cfg.params.numThreads = 4;
    cfg.params.scale = 1;
    cfg.params.seed = 29;
    cfg.params.loadPercent = load;
    cfg.injections = 6;
    cfg.seed = 501;
    cfg.jobs = jobs;
    const CampaignResult r =
        runCampaign(cfg, {cordSpec(16), vcL2CacheSpec()});
    RunManifest m;
    m.tool = "test_server_workloads";
    m.seed = 501;
    m.setConfig("load", std::uint64_t(load));
    addCampaignMetrics(m, app, r);
    return m.renderJson(/*includeVolatile=*/false);
}

TEST(ServerWorkloads, CampaignManifestByteIdenticalAcrossJobCounts)
{
    // The serving tier's arrival schedules are precomputed from the
    // seed alone, so the --jobs N determinism contract must hold at a
    // non-default load too.
    for (const std::string &app : {std::string("kvstore"),
                                   std::string("worksteal")}) {
        const std::string j1 = serverCampaignManifest(app, 200, 1);
        const std::string j4 = serverCampaignManifest(app, 200, 4);
        EXPECT_EQ(j1, j4) << app
                          << ": --jobs changed the campaign manifest";
    }
}

} // namespace
} // namespace cord
