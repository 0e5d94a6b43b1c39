/**
 * @file
 * Many-core scaling study (docs/PERFORMANCE.md): CORD's execution-time
 * overhead and problem-detection rate as the machine grows from 4 to
 * 64 processors, under both snooping and directory coherence.
 *
 * The paper evaluates a 4-processor snooping SMP (Section 3.1) and
 * notes the directory extension in Section 2.5.  This benchmark
 * quantifies what that extension buys at scale:
 *
 *  - under snooping, every race check and timestamp fold is one
 *    broadcast on the single shared address bus, so CORD's traffic
 *    contends with all misses and the bus saturates as cores grow;
 *  - under directory coherence, checks become point-to-point probes of
 *    the home slice plus the *exact* sharer set (banked main-memory
 *    timestamps, one bank per slice), so the cost per check is
 *    1 + sharers slice transactions regardless of the core count.
 *
 * Each (coherence, cores) point reports the mean relative execution
 * time with CORD attached (Figure 11 metric, runPerf, on
 * bench::overheadMachine; the apps fan out over --jobs) and an injection
 * campaign's detection rates for CORD vs the vector-clock L2Cache
 * baseline.  Both detectors visit only the caches holding a line
 * (cord/history_cache.h), so coherence changes what a check costs on
 * the buses, never what it detects.
 *
 * The analytic wire-cost curve puts the scalar-vs-vector argument in
 * the manifest too: a vector-clock message carries one 16-bit entry
 * per core (2N bytes) while CORD piggybacks a single 16-bit scalar,
 * independent of N (paper Section 2.2).
 *
 * Writes a `BENCH_scaling.json` run manifest (override with
 * --perf-out); CI's scaling smoke job runs it twice and requires the
 * two manifests to `cordstat diff` clean.
 *
 * Extra environment knob:
 *   CORD_CORES   comma-separated core counts (default 4,8,16,32,64)
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

std::vector<unsigned>
coreList()
{
    std::vector<unsigned> cores;
    for (const std::string &tok : bench::envList("CORD_CORES", "core counts"))
        cores.push_back(bench::parseUnsignedOrExit("CORD_CORES", tok, 1));
    if (cores.empty())
        cores = {4, 8, 16, 32, 64};
    return cores;
}

/** One measured (coherence, cores) point of the study. */
struct ScalingPoint
{
    std::string coh;       //!< "snoop" | "dir"
    unsigned cores = 0;
    double meanRel = 0.0;  //!< mean CORD relative execution time
    double cordDetect = 0.0; //!< problem rate vs Ideal, all apps pooled
    double vcDetect = 0.0;
    unsigned manifested = 0;
    unsigned injections = 0;
    std::uint64_t raceCheckTraffic = 0;
    std::uint64_t memTsTraffic = 0;
};

ScalingPoint
measurePoint(CoherenceKind coherence, unsigned cores,
             const std::vector<std::string> &apps)
{
    ScalingPoint pt;
    pt.coh = coherence == CoherenceKind::Directory ? "dir" : "snoop";
    pt.cores = cores;

    const MachineConfig machine = bench::overheadMachine(cores, coherence);

    // Overhead: Figure 11 metric per app, averaged in app order.  One
    // software thread per processor -- the study scales the
    // parallelism with the machine, as the paper's SMP does.
    double relSum = 0.0;
    for (const auto &row : bench::overheadByApp(apps, {machine}, cores)) {
        relSum += row[0].relative();
        pt.raceCheckTraffic += row[0].raceCheckTraffic;
        pt.memTsTraffic += row[0].memTsTraffic;
    }
    pt.meanRel = relSum / static_cast<double>(apps.size());

    // Detection: injection campaigns, all apps pooled.
    const std::vector<DetectorSpec> specs = {cordSpec(16, "CORD"),
                                             vcL2CacheSpec()};

    unsigned cordProblems = 0, vcProblems = 0;
    for (const std::string &app : apps) {
        CampaignConfig cfg = bench::campaignFor(app);
        cfg.machine = machine;
        cfg.params.numThreads = cores;
        const CampaignResult r = runCampaign(cfg, specs);
        pt.manifested += r.manifested;
        pt.injections += r.injections;
        cordProblems += r.problems.count("CORD")
                            ? r.problems.at("CORD")
                            : 0;
        vcProblems += r.problems.count("VC-L2Cache")
                          ? r.problems.at("VC-L2Cache")
                          : 0;
    }
    if (pt.manifested > 0) {
        pt.cordDetect = static_cast<double>(cordProblems) / pt.manifested;
        pt.vcDetect = static_cast<double>(vcProblems) / pt.manifested;
    }
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv,
                     {"--jobs", "--json", "--perf-out", "--load"});
    const bool json = bench::args().json;
    if (!json)
        std::printf("CORD reproduction -- many-core scaling study\n");

    RunManifest manifest;
    manifest.tool = "bench_scaling";
    manifest.seed = bench::envUnsigned("CORD_SEED", 1);
    manifest.setConfig("scale",
                       std::uint64_t(bench::envUnsigned("CORD_SCALE", 2)));
    manifest.setConfig("injections",
                       std::uint64_t(bench::envUnsigned("CORD_INJECTIONS",
                                                        30)));
    manifest.stampTime();

    TextTable t({"Coherence", "Cores", "CORD rel", "CORD detect",
                 "VC detect", "VC wire B/msg"});

    const auto apps = bench::appList();
    const auto cores = coreList();
    for (CoherenceKind coh :
         {CoherenceKind::Snooping, CoherenceKind::Directory}) {
        for (unsigned n : cores) {
            std::fprintf(stderr, "  [scaling] %s %u cores...\n",
                         coh == CoherenceKind::Directory ? "dir"
                                                        : "snoop",
                         n);
            const ScalingPoint pt = measurePoint(coh, n, apps);

            // A vector-clock piggyback carries one 16-bit entry per
            // core; CORD's scalar stays 2 bytes at every size.
            const std::uint64_t vcWire = 2ull * n;
            t.addRow({pt.coh, std::to_string(n),
                      TextTable::percent(pt.meanRel, 2),
                      TextTable::percent(pt.cordDetect, 1),
                      TextTable::percent(pt.vcDetect, 1),
                      std::to_string(vcWire)});

            StatRegistry reg;
            reg.set("relBp",
                    std::uint64_t(std::llround(pt.meanRel * 10000)));
            reg.set("cordDetectPct",
                    std::uint64_t(std::llround(pt.cordDetect * 100)));
            reg.set("vcDetectPct",
                    std::uint64_t(std::llround(pt.vcDetect * 100)));
            reg.set("manifested", std::uint64_t(pt.manifested));
            reg.set("injections", std::uint64_t(pt.injections));
            reg.set("raceCheckTraffic", pt.raceCheckTraffic);
            reg.set("memTsTraffic", pt.memTsTraffic);
            reg.set("cordWireBytesPerMsg", std::uint64_t(2));
            reg.set("vcWireBytesPerMsg", vcWire);
            manifest.metrics.add("scaling." + pt.coh + ".c" +
                                     std::to_string(n),
                                 reg);
        }
    }

    const std::string title =
        "Many-core scaling: CORD overhead and detection vs core count";
    if (json)
        t.printJson(title);
    else
        t.print(title);

    manifest.tables.push_back({title, t.headers(), t.rows()});
    const std::string outPath = bench::args().perfOutPath.empty()
                                    ? "BENCH_scaling.json"
                                    : bench::args().perfOutPath;
    manifest.wallSeconds = bench::elapsedSec();
    manifest.save(outPath);
    if (!json)
        std::printf("manifest: %s\n", outPath.c_str());
    return 0;
}
