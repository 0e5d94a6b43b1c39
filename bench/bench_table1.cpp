/**
 * @file
 * Table 1 reproduction: applications evaluated and their input sets.
 *
 * Prints the paper's input set next to the scaled analog this
 * repository runs, plus measured run statistics (shared footprint,
 * committed accesses, removable synchronization instances) from one
 * clean run per application.
 *
 * Pass --json to print the table as JSON instead of text.  Either way
 * the binary writes a `BENCH_table1.json` run manifest (schema:
 * docs/OBSERVABILITY.md) with the table and per-app metrics embedded,
 * for CI artifact upload and `cordstat` consumption.
 */

#include <cstdio>
#include <cstring>

#include "bench_common.h"
#include "harness/runner.h"
#include "obs/manifest.h"

using namespace cord;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, {"--jobs", "--json"});
    const bool json = bench::args().json;

    if (!json)
        std::printf(
            "CORD reproduction -- Table 1: applications and inputs\n");

    RunManifest manifest;
    manifest.tool = "bench_table1";
    manifest.seed = 7;
    manifest.setConfig("scale",
                       std::uint64_t(bench::envUnsigned("CORD_SCALE", 2)));
    manifest.setConfig("threads", std::uint64_t(kDefaultNumThreads));
    manifest.stampTime();

    TextTable t({"App", "Paper input", "Our input (analog)",
                 "Sync idiom", "Footprint", "Accesses", "SyncInst"});
    const auto apps = bench::appList();
    parallelForOrdered(
        apps.size(), bench::args().jobs,
        [&](std::size_t i) {
            RunSetup setup;
            setup.workload = apps[i];
            setup.params.numThreads = 4;
            setup.params.scale = bench::envUnsigned("CORD_SCALE", 2);
            setup.params.seed = 7;
            return runWorkload(setup);
        },
        [&](std::size_t i, RunOutcome &&out) {
            const std::string &app = apps[i];
            auto w = makeWorkload(app);
            char foot[32];
            std::snprintf(foot, sizeof(foot), "%.1fKB",
                          out.footprintWords * 4.0 / 1024.0);
            t.addRow({app, w->meta().paperInput, w->meta().ourInput,
                      w->meta().syncIdiom, foot,
                      std::to_string(out.accesses),
                      std::to_string(out.totalInstances())});
            manifest.metrics.add(app, out.stats);
            manifest.simTicks += out.ticks;
        });

    const std::string title =
        "Table 1: applications evaluated and their input sets";
    if (json)
        t.printJson(title);
    else
        t.print(title);

    manifest.tables.push_back({title, t.headers(), t.rows()});
    manifest.wallSeconds = bench::elapsedSec();
    manifest.save("BENCH_table1.json");
    if (!json)
        std::printf("manifest: BENCH_table1.json\n");
    return 0;
}
