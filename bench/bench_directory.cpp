/**
 * @file
 * Extension experiment: CORD overhead under directory-based coherence
 * (paper Section 2.5 notes the extension is straightforward; this
 * quantifies it).  Directory mode replaces the snooping broadcast with
 * an indirection through the directory: misses pay a lookup, race
 * checks become request + directed probe, and invalidations are sent
 * per sharer.  Detection is unchanged (the directory knows the exact
 * sharer set); only the traffic/latency profile moves.
 */

#include <cstdio>

#include "bench_common.h"

using namespace cord;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, {"--jobs"});
    std::printf("CORD reproduction -- extension: directory coherence\n");
    TextTable t({"App", "Snoop base", "Snoop CORD", "Snoop rel",
                 "Dir base", "Dir CORD", "Dir rel"});
    double snoopSum = 0.0;
    double dirSum = 0.0;
    const auto apps = bench::appList();
    const unsigned computeScale = bench::computeScale();
    parallelForOrdered(
        apps.size(), bench::args().jobs,
        [&](std::size_t i) {
            const std::string &app = apps[i];
            std::fprintf(stderr, "  [directory] %s...\n", app.c_str());
            WorkloadParams params;
            params.numThreads = kDefaultNumThreads;
            params.scale = bench::envUnsigned("CORD_SCALE", 2);
            params.seed = bench::workloadSeed();
            CordConfig cord;

            MachineConfig snoop;
            snoop.computeScale = computeScale;
            MachineConfig dir = snoop;
            dir.coherence = CoherenceKind::Directory;

            return std::make_pair(runPerf(app, params, snoop, cord),
                                  runPerf(app, params, dir, cord));
        },
        [&](std::size_t i, std::pair<PerfPoint, PerfPoint> &&pp) {
            const std::string &app = apps[i];
            const PerfPoint &ps = pp.first;
            const PerfPoint &pd = pp.second;
            snoopSum += ps.relative();
            dirSum += pd.relative();
            t.addRow({app, std::to_string(ps.baselineTicks),
                      std::to_string(ps.cordTicks),
                      TextTable::percent(ps.relative(), 2),
                      std::to_string(pd.baselineTicks),
                      std::to_string(pd.cordTicks),
                      TextTable::percent(pd.relative(), 2)});
        });
    t.addRow({"Average", "", "",
              TextTable::percent(snoopSum / apps.size(), 2), "", "",
              TextTable::percent(dirSum / apps.size(), 2)});
    t.print("Extension: CORD overhead, snooping vs directory coherence");
    return 0;
}
