/**
 * @file
 * Figure 11 reproduction: execution time with CORD relative to a
 * baseline machine with no order-recording and no data race detection
 * support.
 *
 * Paper finding: 0.4% average overhead, 3% worst case (cholesky, whose
 * frequent synchronization causes bursts of timestamp removals and
 * race check requests on the half-speed address/timestamp bus).
 */

#include <cstdio>

#include "bench_common.h"

using namespace cord;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, {"--jobs"});
    std::printf("CORD reproduction -- Figure 11\n");
    TextTable t({"App", "Baseline(cyc)", "CORD(cyc)", "Relative",
                 "RaceChecks", "MemTsUpd"});
    double sum = 0.0;
    double worst = 0.0;
    std::string worstApp;
    const auto apps = bench::appList();
    const unsigned computeScale = bench::computeScale();
    // The perf points are independent of each other (no shared census),
    // so fan the apps out across workers; rows merge in app order.
    parallelForOrdered(
        apps.size(), bench::args().jobs,
        [&](std::size_t i) {
            const std::string &app = apps[i];
            std::fprintf(stderr, "  [perf] %s...\n", app.c_str());
            WorkloadParams params;
            params.numThreads = kDefaultNumThreads;
            params.scale = bench::envUnsigned("CORD_SCALE", 2);
            params.seed = bench::workloadSeed();
            MachineConfig machine;
            machine.computeScale = computeScale;
            CordConfig cord;
            return runPerf(app, params, machine, cord);
        },
        [&](std::size_t i, PerfPoint &&p) {
            const std::string &app = apps[i];
            t.addRow({app, std::to_string(p.baselineTicks),
                      std::to_string(p.cordTicks),
                      TextTable::percent(p.relative(), 2),
                      std::to_string(p.raceCheckTraffic),
                      std::to_string(p.memTsTraffic)});
            sum += p.relative();
            if (p.relative() > worst) {
                worst = p.relative();
                worstApp = app;
            }
        });
    t.addRow({"Average", "", "",
              TextTable::percent(sum / apps.size(), 2), "", ""});
    t.print("Figure 11: execution time with CORD relative to baseline");
    std::printf("Worst case: %s at %s (paper: cholesky at 103%%)\n",
                worstApp.c_str(), TextTable::percent(worst, 2).c_str());
    return 0;
}
