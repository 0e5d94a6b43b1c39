/**
 * @file
 * The 4-core overhead report.
 *
 * Figure 11 reproduction: execution time with CORD relative to a
 * baseline machine with no order-recording and no data race detection
 * support.  Paper finding: 0.4% average overhead, 3% worst case
 * (cholesky, whose frequent synchronization causes bursts of timestamp
 * removals and race check requests on the half-speed
 * address/timestamp bus).
 *
 * Extension: the same run pair under directory-based coherence (paper
 * Section 2.5 notes the extension is straightforward; this quantifies
 * it).  Directory mode replaces the snooping broadcast with an
 * indirection through the directory: misses pay a lookup, race checks
 * become request + directed probe, and invalidations are sent per
 * sharer.  Detection is unchanged (the directory knows the exact
 * sharer set); only the traffic/latency profile moves.
 *
 * Each app's snooping and directory pairs run once; both tables are
 * printed from those results.
 */

#include <cstdio>

#include "bench_common.h"

using namespace cord;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, {"--jobs"});
    const auto apps = bench::appList();
    const auto rows = bench::overheadByApp(
        apps,
        {bench::overheadMachine(kDefaultNumCores, CoherenceKind::Snooping),
         bench::overheadMachine(kDefaultNumCores,
                                CoherenceKind::Directory)},
        kDefaultNumThreads);

    std::printf("CORD reproduction -- Figure 11\n");
    TextTable fig11({"App", "Baseline(cyc)", "CORD(cyc)", "Relative",
                     "RaceChecks", "MemTsUpd"});
    TextTable dir({"App", "Snoop base", "Snoop CORD", "Snoop rel",
                   "Dir base", "Dir CORD", "Dir rel"});
    double snoopSum = 0.0;
    double dirSum = 0.0;
    double worst = 0.0;
    std::string worstApp;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const PerfPoint &ps = rows[i][0];
        const PerfPoint &pd = rows[i][1];
        fig11.addRow({apps[i], std::to_string(ps.baselineTicks),
                      std::to_string(ps.cordTicks),
                      TextTable::percent(ps.relative(), 2),
                      std::to_string(ps.raceCheckTraffic),
                      std::to_string(ps.memTsTraffic)});
        dir.addRow({apps[i], std::to_string(ps.baselineTicks),
                    std::to_string(ps.cordTicks),
                    TextTable::percent(ps.relative(), 2),
                    std::to_string(pd.baselineTicks),
                    std::to_string(pd.cordTicks),
                    TextTable::percent(pd.relative(), 2)});
        snoopSum += ps.relative();
        dirSum += pd.relative();
        if (ps.relative() > worst) {
            worst = ps.relative();
            worstApp = apps[i];
        }
    }
    const std::string snoopAvg =
        TextTable::percent(snoopSum / apps.size(), 2);
    fig11.addRow({"Average", "", "", snoopAvg, "", ""});
    fig11.print("Figure 11: execution time with CORD relative to baseline");
    std::printf("Worst case: %s at %s (paper: cholesky at 103%%)\n",
                worstApp.c_str(), TextTable::percent(worst, 2).c_str());

    std::printf("CORD reproduction -- extension: directory coherence\n");
    dir.addRow({"Average", "", "", snoopAvg, "", "",
                TextTable::percent(dirSum / apps.size(), 2)});
    dir.print("Extension: CORD overhead, snooping vs directory coherence");
    return 0;
}
