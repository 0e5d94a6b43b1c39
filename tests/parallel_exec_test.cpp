/**
 * @file
 * Unit tests for the parallel experiment engine (harness/exec.h):
 * thread-pool fan-out, in-order merging, exception plumbing, and the
 * headline guarantee -- runCampaign produces bit-identical results and
 * manifests for every job count.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/exec.h"
#include "harness/experiments.h"
#include "obs/manifest.h"
#include "sim/rng.h"

namespace cord
{
namespace
{

TEST(ParallelExec, ResolveJobs)
{
    EXPECT_GE(resolveJobs(0), 1u); // 0 = one per hardware thread
    EXPECT_EQ(resolveJobs(1), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(ParallelExec, JobsEnvRejectsMalformedValues)
{
    struct EnvGuard
    {
        ~EnvGuard() { ::unsetenv("CORD_JOBS"); }
    } guard;

    ::setenv("CORD_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    ::setenv("CORD_JOBS", "0", 1); // documented: hardware threads
    EXPECT_GE(defaultJobs(), 1u);
    // Malformed values must fall back to the documented default of 1,
    // not parse as 0 and silently fan out to every hardware thread.
    for (const char *bad : {"auto", "8x", "-2", "x8", " 4", "4 "}) {
        ::setenv("CORD_JOBS", bad, 1);
        EXPECT_EQ(defaultJobs(), 1u) << "value='" << bad << "'";
    }
}

TEST(ParallelExec, OrderedMergeRunsInSubmissionOrder)
{
    // Make later indices finish first: out-of-order completion must
    // not reorder the merge sequence.
    constexpr std::size_t n = 24;
    std::vector<std::size_t> order;
    parallelForOrdered(
        n, 4,
        [&](std::size_t i) {
            std::this_thread::sleep_for(
                std::chrono::microseconds((n - i) * 50));
            return i * 3 + 1;
        },
        [&](std::size_t i, std::size_t &&v) {
            EXPECT_EQ(v, i * 3 + 1);
            order.push_back(i);
        });
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelExec, OrderedMatchesSequentialForEveryJobCount)
{
    auto run = [](unsigned jobs) {
        std::vector<std::uint64_t> out;
        parallelForOrdered(
            100, jobs,
            [](std::size_t i) { return Rng::deriveSeed(99, i) % 1000; },
            [&](std::size_t, std::uint64_t &&v) { out.push_back(v); });
        return out;
    };
    const auto seq = run(1);
    EXPECT_EQ(run(2), seq);
    EXPECT_EQ(run(4), seq);
    EXPECT_EQ(run(13), seq); // more workers than a sane machine
}

TEST(ParallelExec, OrderedRethrowsAtFailingIndex)
{
    std::vector<std::size_t> merged;
    try {
        parallelForOrdered(
            32, 4,
            [](std::size_t i) -> std::size_t {
                if (i == 5)
                    throw std::runtime_error("injected failure");
                return i;
            },
            [&](std::size_t i, std::size_t &&) { merged.push_back(i); });
        FAIL() << "expected the worker exception to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "injected failure");
    }
    // Everything before the failing index merged, nothing after it.
    EXPECT_EQ(merged, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ------------------------------------------------- campaign determinism

CampaignConfig
smallCampaign(const std::string &app, unsigned jobs)
{
    CampaignConfig cfg;
    cfg.workload = app;
    cfg.params.scale = 1;
    cfg.params.seed = 41;
    cfg.injections = 8;
    cfg.seed = 5;
    cfg.jobs = jobs;
    return cfg;
}

void
expectIdentical(const CampaignResult &a, const CampaignResult &b)
{
    EXPECT_EQ(a.injections, b.injections);
    EXPECT_EQ(a.manifested, b.manifested);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.timedOutRuns, b.timedOutRuns);
    EXPECT_EQ(a.totalInstances, b.totalInstances);
    EXPECT_EQ(a.cleanIdealRaces, b.cleanIdealRaces);
    EXPECT_EQ(a.problems, b.problems);
    EXPECT_EQ(a.rawRaces, b.rawRaces);
    EXPECT_EQ(a.idealRawRaces, b.idealRawRaces);
}

TEST(ParallelExec, CampaignIsBitIdenticalAcrossJobCounts)
{
    const std::vector<DetectorSpec> specs = {cordSpec(16),
                                             vcL2CacheSpec()};
    const CampaignResult seq =
        runCampaign(smallCampaign("lu", 1), specs);
    const CampaignResult par =
        runCampaign(smallCampaign("lu", 4), specs);
    expectIdentical(seq, par);
}

TEST(ParallelExec, CampaignObserverRunsOnCallerThreadInOrder)
{
    CampaignConfig cfg = smallCampaign("radix", 4);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<unsigned> seen;
    cfg.onRunDone = [&](const CampaignRunView &v) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        seen.push_back(v.index);
    };
    runCampaign(cfg, {cordSpec(16)});
    // The observer fires for every completed run, in submission order,
    // so lint observers written for the sequential path keep working.
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_LT(seen[i - 1], seen[i]);
}

TEST(ParallelExec, CampaignManifestIsByteIdenticalAcrossJobCounts)
{
    const std::vector<DetectorSpec> specs = {cordSpec(16)};
    auto render = [&](unsigned jobs) {
        const CampaignResult r =
            runCampaign(smallCampaign("fft", jobs), specs);
        RunManifest m;
        m.tool = "test_parallel_exec";
        m.seed = 5;
        addCampaignMetrics(m, "fft", r);
        return m.renderJson(/*includeVolatile=*/false);
    };
    EXPECT_EQ(render(1), render(4));
}

} // namespace
} // namespace cord
