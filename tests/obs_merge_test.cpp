/**
 * @file
 * Parallel-campaign observability tests: MetricHub/stats merging must
 * be independent of the worker count (byte-identical manifests for
 * --jobs 1 vs --jobs 4), the campaign flight recorder (harness/flight.h)
 * must stream well-formed cord-heartbeat-v1 JSONL without perturbing
 * results, and histogram flattening must surface p50/p99 estimates.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "harness/experiments.h"
#include "harness/flight.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"

namespace cord
{
namespace
{

CampaignConfig
smallCampaign()
{
    CampaignConfig cfg;
    cfg.workload = "fft";
    cfg.params.numThreads = 4;
    cfg.params.scale = 4;
    cfg.params.seed = 11;
    cfg.injections = 6;
    cfg.seed = 0xC0FFEE;
    return cfg;
}

std::string
campaignManifestJson(const CampaignConfig &cfg)
{
    const CampaignResult r = runCampaign(cfg, {cordSpec(16)});
    RunManifest m;
    m.tool = "obs_merge_test";
    m.workload = cfg.workload;
    m.seed = cfg.seed;
    addCampaignMetrics(m, cfg.workload, r);
    return m.renderJson(/*includeVolatile=*/false);
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    if (!f)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

std::vector<JsonValue>
parseLines(const std::string &text)
{
    std::vector<JsonValue> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        if (line.empty())
            continue;
        std::string err;
        auto v = JsonValue::parse(line, &err);
        EXPECT_TRUE(v) << err << " in: " << line;
        if (v)
            lines.push_back(std::move(*v));
    }
    return lines;
}

TEST(ObsMerge, CampaignManifestIdenticalAcrossJobCounts)
{
    CampaignConfig cfg = smallCampaign();
    cfg.jobs = 1;
    const std::string serial = campaignManifestJson(cfg);
    cfg.jobs = 4;
    const std::string parallel = campaignManifestJson(cfg);
    EXPECT_EQ(serial, parallel);
}

TEST(ObsMerge, HeartbeatDoesNotPerturbCampaignManifest)
{
    // Both fan-outs (docs/INTERNALS.md §5): forked from one trunk, and
    // fresh runs on the pool (a per-run hook selects it).
    for (const bool fresh : {false, true}) {
        SCOPED_TRACE(fresh ? "fresh runs" : "forked runs");
        CampaignConfig cfg = smallCampaign();
        cfg.jobs = 4;
        if (fresh)
            cfg.onRunDone = [](const CampaignRunView &) {};
        const std::string without = campaignManifestJson(cfg);

        const std::string hb = testing::TempDir() + "obs_merge_hb.jsonl";
        std::remove(hb.c_str());
        {
            FlightRecorder flight(hb);
            cfg.flight = &flight;
            const std::string with = campaignManifestJson(cfg);
            EXPECT_EQ(without, with);
            EXPECT_EQ(flight.dropped(), 0u);
        }

        // The stream itself: begin + one started/finished pair per run
        // + end, schema-stamped first line, strictly increasing seq.
        const auto lines = parseLines(slurp(hb));
        ASSERT_EQ(lines.size(), 2u + 2u * cfg.injections);
        EXPECT_EQ(lines.front().str("schema"), kHeartbeatSchema);
        EXPECT_EQ(lines.front().str("event"), "campaign_begin");
        EXPECT_EQ(lines.front().num("runs"), cfg.injections);
        EXPECT_EQ(lines.front().num("jobs"), 4);
        EXPECT_EQ(lines.back().str("event"), "campaign_end");
        unsigned started = 0, finished = 0;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            EXPECT_EQ(lines[i].num("seq"), static_cast<double>(i));
            const std::string ev = lines[i].str("event");
            started += ev == "run_started";
            finished += ev == "run_finished";
        }
        EXPECT_EQ(started, cfg.injections);
        EXPECT_EQ(finished, cfg.injections);
        // Fresh runs finish in merge order, run index increasing;
        // forked runs finish as their children are reaped, each run
        // once and after its own run_started.
        double lastRun = -1;
        std::set<double> open, done;
        for (const JsonValue &l : lines) {
            const std::string ev = l.str("event");
            if (ev == "run_started")
                open.insert(l.num("run"));
            if (ev != "run_finished")
                continue;
            if (fresh) {
                EXPECT_GT(l.num("run"), lastRun);
            }
            lastRun = l.num("run");
            EXPECT_EQ(open.erase(lastRun), 1u) << "run " << lastRun;
            EXPECT_TRUE(done.insert(lastRun).second) << "run " << lastRun;
        }
        const double forks = lines.back().num("forks");
        if (fresh) {
            EXPECT_EQ(forks, 0.0);
        } else {
            EXPECT_GE(forks, 1.0);
            EXPECT_LE(forks, cfg.injections);
        }
        std::remove(hb.c_str());
    }
}

TEST(ObsMerge, FlightRecorderByteBudgetDropsButKeepsEndpoints)
{
    const std::string hb = testing::TempDir() + "obs_merge_tiny.jsonl";
    std::remove(hb.c_str());
    {
        // Budget fits campaign_begin plus barely anything else.
        FlightRecorder flight(hb, /*maxBytes=*/220);
        flight.campaignBegin("fft", 4, 4, 1, 2);
        for (unsigned i = 0; i < 4; ++i) {
            flight.runStarted(i, i, 0);
            flight.runFinished(i, i, 0, true, false, 0.5, 1000, 0);
        }
        flight.campaignEnd(4, 0, 0.0, 0, 0.0);
        EXPECT_GT(flight.dropped(), 0u);
    }
    const auto lines = parseLines(slurp(hb));
    ASSERT_GE(lines.size(), 2u);
    // The mandatory endpoints survive any budget and the end event
    // reports how much was cut.
    EXPECT_EQ(lines.front().str("event"), "campaign_begin");
    EXPECT_EQ(lines.back().str("event"), "campaign_end");
    EXPECT_GT(lines.back().num("droppedEvents"), 0.0);
    std::remove(hb.c_str());
}

TEST(ObsMerge, StatMergeIsOrderIndependentForCampaignShapes)
{
    // The campaign merges per-run registries in submission order; a
    // job-count change must not alter the merged result.  Model three
    // runs' worth of counters/gauges/histograms and merge them 1-by-1
    // vs. pre-merged-in-pairs.
    std::vector<StatRegistry> runs(3);
    for (unsigned i = 0; i < runs.size(); ++i) {
        runs[i].inc("sim.ticks", 100 * (i + 1));
        runs[i].sample("cache.occupancy", 0.25 * (i + 1));
        runs[i].observe("clock.jump", 1u << i);
    }

    MetricHub oneByOne;
    for (const StatRegistry &r : runs)
        oneByOne.add("campaign", r);

    StatRegistry pair;
    pair.merge("", runs[0]);
    pair.merge("", runs[1]);
    MetricHub batched;
    batched.add("campaign", pair);
    batched.add("campaign", runs[2]);

    EXPECT_EQ(oneByOne.renderText(), batched.renderText());
    JsonWriter a, b;
    oneByOne.writeJson(a);
    batched.writeJson(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ObsMerge, FlattenSurfacesHistogramPercentiles)
{
    // 90 values in bucket 3 ([4,7]) and 10 in bucket 7 ([64,127]):
    // p50 falls in the low bucket, p99 in the high one.
    StatRegistry reg;
    for (int i = 0; i < 90; ++i)
        reg.observe("lat", 5);
    for (int i = 0; i < 10; ++i)
        reg.observe("lat", 100);
    MetricHub hub;
    hub.add("mem", reg);
    JsonWriter w;
    hub.writeJson(w);
    std::string err;
    auto v = JsonValue::parse(w.str(), &err);
    ASSERT_TRUE(v) << err;
    const auto flat = flattenMetricsJson(*v);
    ASSERT_TRUE(flat.count("mem.lat.p50"));
    ASSERT_TRUE(flat.count("mem.lat.p99"));
    EXPECT_EQ(flat.at("mem.lat.p50"), 7);   // bucketHigh(3)
    EXPECT_EQ(flat.at("mem.lat.p99"), 127); // bucketHigh(7)
    EXPECT_EQ(flat.at("mem.lat.count"), 100);
}

} // namespace
} // namespace cord
