/**
 * @file
 * Server-tier study (docs/WORKLOADS.md): CORD under request-driven
 * serving workloads across offered-load levels.
 *
 * The paper's evaluation is scientific-kernel SPLASH-2; always-on
 * order recording is pitched at production *servers*, so this study
 * asks the missing question: what does CORD cost, and what does it
 * catch, when the workload is a key-value store / thread pool / RCU
 * registry / event loop under open-loop traffic?
 *
 * For every (app, load%) point it reports:
 *  - relative execution time with CORD attached and its traffic
 *    charged to the buses (baseline = no detection hardware), on the
 *    default machine at computeScale 1 -- the machine the detection
 *    campaign runs on, not Figure 11's bench::overheadMachine;
 *  - request-latency tails from the traffic engine's histogram --
 *    p50/p99 for the baseline and the CORD-attached run, so timestamp
 *    traffic shows up where a serving system would feel it;
 *  - drop/saturation counters (bounded-queue overflow, tail blowup);
 *  - an injection campaign's detection rates (CORD and the
 *    vector-clock L2Cache baseline vs Ideal) at that load.
 *
 * Writes a `BENCH_server.json` run manifest (override with
 * --perf-out); CI's server smoke job runs it twice and requires the
 * two manifests to `cordstat diff` clean.
 *
 * Environment knobs (beyond bench_common's):
 *   CORD_LOAD    comma-separated load percentages (default 50,100,200)
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/manifest.h"

using namespace cord;

namespace
{

/** One measured (app, load) point. */
struct ServerPoint
{
    std::string app;
    unsigned load = 0;         //!< offered load, percent of nominal
    double rel = 0.0;          //!< CORD relative execution time
    Tick p50Base = 0, p99Base = 0; //!< latency ticks, no detection hw
    Tick p50Cord = 0, p99Cord = 0; //!< latency ticks, CORD attached
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t saturated = 0;
    double cordDetect = 0.0;
    double vcDetect = 0.0;
    unsigned manifested = 0;
    unsigned injections = 0;
};

/** p50 / p99 of one run's request-latency histogram. */
void
readLatency(const RequestTraffic &t, Tick &p50, Tick &p99)
{
    p50 = static_cast<Tick>(t.latencyTicks.quantile(0.5));
    p99 = static_cast<Tick>(t.latencyTicks.quantile(0.99));
}

ServerPoint
measurePoint(const std::string &app, unsigned load)
{
    ServerPoint pt;
    pt.app = app;
    pt.load = load;

    WorkloadParams params;
    params.numThreads = kDefaultNumThreads;
    params.scale = bench::envUnsigned("CORD_SCALE", 2);
    params.loadPercent = load;
    params.seed = bench::workloadSeed();
    const MachineConfig machine;

    // Baseline/CORD run pair at computeScale 1 (not the Figure 11
    // machine).  Tail counters come from the baseline run --
    // drops happen at arrival time and are detector-invariant.
    const PerfPoint perf = runPerf(app, params, machine, CordConfig{});
    readLatency(perf.baselineTraffic, pt.p50Base, pt.p99Base);
    readLatency(perf.cordTraffic, pt.p50Cord, pt.p99Cord);
    pt.completed = perf.baselineTraffic.completed;
    pt.dropped = perf.baselineTraffic.dropped;
    pt.saturated = perf.baselineTraffic.saturated;
    pt.rel = perf.relative();

    // Detection at this load: the standard injection campaign.
    {
        CampaignConfig cfg = bench::campaignFor(app);
        cfg.params.loadPercent = load;
        std::vector<DetectorSpec> specs;
        specs.push_back(cordSpec(16, "CORD"));
        specs.push_back(vcL2CacheSpec());
        const CampaignResult r = runCampaign(cfg, specs);
        pt.manifested = r.manifested;
        pt.injections = r.injections;
        pt.cordDetect = r.problemRateVsIdeal("CORD");
        pt.vcDetect = r.problemRateVsIdeal("VC-L2Cache");
    }
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, {"--jobs", "--json", "--perf-out"});
    const bool json = bench::args().json;
    if (!json)
        std::printf(
            "CORD reproduction -- server-tier load study\n");

    RunManifest manifest;
    manifest.tool = "bench_server";
    manifest.seed = bench::envUnsigned("CORD_SEED", 1);
    manifest.setConfig("scale",
                       std::uint64_t(bench::envUnsigned("CORD_SCALE", 2)));
    manifest.setConfig("injections",
                       std::uint64_t(bench::envUnsigned("CORD_INJECTIONS",
                                                        30)));
    manifest.setConfig("threads", std::uint64_t(kDefaultNumThreads));
    manifest.stampTime();

    TextTable t({"App", "Load%", "CORD rel", "p50 base", "p99 base",
                 "p99 CORD", "Drops", "CORD detect", "VC detect"});

    // Server family only: CORD_APPS may narrow it but never pulls the
    // splash analogs into a traffic study they do not understand.
    std::vector<std::string> apps;
    for (const std::string &app : bench::appList())
        if (workloadFamily(app) == "server")
            apps.push_back(app);
    if (const char *e = std::getenv("CORD_APPS"); !e || !*e)
        apps = workloadNames("server");
    cord_assert(!apps.empty(),
                "bench_server: CORD_APPS named no server-family app");

    unsigned manifestedTotal = 0;
    for (const std::string &app : apps) {
        for (unsigned load : bench::loadLevels()) {
            std::fprintf(stderr, "  [server] %s @ %u%%...\n",
                         app.c_str(), load);
            const ServerPoint pt = measurePoint(app, load);
            manifestedTotal += pt.manifested;

            t.addRow({pt.app, std::to_string(pt.load),
                      TextTable::percent(pt.rel, 2),
                      std::to_string(pt.p50Base),
                      std::to_string(pt.p99Base),
                      std::to_string(pt.p99Cord),
                      std::to_string(pt.dropped),
                      TextTable::percent(pt.cordDetect, 1),
                      TextTable::percent(pt.vcDetect, 1)});

            StatRegistry reg;
            reg.set("relBp",
                    std::uint64_t(std::llround(pt.rel * 10000)));
            reg.set("latencyP50Base", std::uint64_t(pt.p50Base));
            reg.set("latencyP99Base", std::uint64_t(pt.p99Base));
            reg.set("latencyP50Cord", std::uint64_t(pt.p50Cord));
            reg.set("latencyP99Cord", std::uint64_t(pt.p99Cord));
            reg.set("completed", pt.completed);
            reg.set("dropped", pt.dropped);
            reg.set("saturated", pt.saturated);
            reg.set("manifested", std::uint64_t(pt.manifested));
            reg.set("injections", std::uint64_t(pt.injections));
            reg.set("cordDetectPct",
                    std::uint64_t(std::llround(pt.cordDetect * 100)));
            reg.set("vcDetectPct",
                    std::uint64_t(std::llround(pt.vcDetect * 100)));
            manifest.metrics.add("server." + pt.app + ".load" +
                                     std::to_string(pt.load),
                                 reg);
        }
    }
    cord_assert(manifestedTotal > 0,
                "server campaigns manifested no race at any load -- "
                "injection coverage is broken");

    const std::string title =
        "Server tier (computeScale 1): CORD overhead, latency tails and "
        "detection vs offered load";
    if (json)
        t.printJson(title);
    else
        t.print(title);

    manifest.tables.push_back({title, t.headers(), t.rows()});
    const std::string outPath = bench::args().perfOutPath.empty()
                                    ? "BENCH_server.json"
                                    : bench::args().perfOutPath;
    manifest.wallSeconds = bench::elapsedSec();
    manifest.save(outPath);
    if (!json)
        std::printf("manifest: %s\n", outPath.c_str());
    return 0;
}
