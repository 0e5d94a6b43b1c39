/**
 * @file
 * Section 3.3 reproduction: order-recording log size and replay
 * accuracy.
 *
 * Paper finding: "Our order logs are very compact and in all
 * applications require less than 1MB for the entire execution" and
 * "the entire execution can be accurately replayed" (verified with and
 * without injections).  This binary records every application, checks
 * log size per million instructions, then replays each run under an
 * adversarial machine configuration and verifies the per-thread read
 * value checksums match.
 */

#include <cstdio>

#include "bench_common.h"
#include "cord/replay.h"
#include "inject/injector.h"

using namespace cord;

namespace
{

struct Row
{
    std::string app;
    std::size_t logBytes = 0;
    double bytesPerKiloInstr = 0.0;
    bool replayOk = false;
    bool injectedReplayOk = false;
};

bool
replayMatches(const std::string &app, const WorkloadParams &params,
              const OrderLog &log, const RunOutcome &recOut,
              SyncInstanceFilter *filter)
{
    RunSetup rep;
    rep.workload = app;
    rep.params = params;
    rep.filter = filter;
    rep.machine.memoryLatency = 80;
    rep.machine.cacheToCacheLatency = 4;
    rep.machine.l2HitLatency = 2;
    ReplayGate gate(log, params.numThreads);
    rep.gate = &gate;
    rep.maxTicks = recOut.ticks * 200 + 10000000;
    const RunOutcome repOut = runWorkload(rep);
    if (!repOut.completed || gate.overrunInstrs() != 0)
        return false;
    for (unsigned t = 0; t < params.numThreads; ++t) {
        if (repOut.readChecksums[t] != recOut.readChecksums[t])
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, {"--jobs"});
    std::printf("CORD reproduction -- Section 3.3 (order log + replay)\n");
    TextTable t({"App", "LogEntries", "LogBytes", "B/kInstr",
                 "CleanReplay", "InjectedReplay"});
    bool allOk = true;
    // Order-log replay needs timing-independent instruction streams;
    // the server family's open-loop pacer reads the simulated clock,
    // so it replays via schedule logs only (docs/WORKLOADS.md).
    std::vector<std::string> apps;
    for (const std::string &app : bench::appList()) {
        if (workloadFamily(app) == "server")
            std::fprintf(stderr,
                         "  [orderlog] %s: skipped (server family "
                         "replays via schedule logs)\n", app.c_str());
        else
            apps.push_back(app);
    }
    struct AppRow
    {
        std::vector<std::string> cells;
        bool ok = true;
    };
    parallelForOrdered(
        apps.size(), bench::args().jobs,
        [&](std::size_t idx) {
            const std::string &app = apps[idx];
            std::fprintf(stderr, "  [orderlog] %s...\n", app.c_str());
            WorkloadParams params;
            params.numThreads = kDefaultNumThreads;
            params.scale = bench::envUnsigned("CORD_SCALE", 2);
            params.seed = Rng::deriveSeed(bench::baseSeed(),
                                          bench::kBenchOrderlogSeedTag);

            // Clean recording + replay.
            CordConfig cc;
            CordDetector recorder(cc);
            RunSetup rec;
            rec.workload = app;
            rec.params = params;
            rec.detectors = {&recorder};
            const RunOutcome recOut = runWorkload(rec);
            std::uint64_t instrs = 0;
            for (auto i : recOut.instrs)
                instrs += i;
            const bool cleanOk = replayMatches(app, params,
                                               recorder.orderLog(),
                                               recOut, nullptr);

            // Injected recording + replay (removal of one sync
            // instance).
            RemoveOneInstance filter({1, 2});
            CordDetector recorder2(cc);
            RunSetup rec2;
            rec2.workload = app;
            rec2.params = params;
            rec2.filter = &filter;
            rec2.detectors = {&recorder2};
            rec2.maxTicks = recOut.ticks * 25 + 1000000;
            const RunOutcome recOut2 = runWorkload(rec2);
            bool injOk = true;
            if (recOut2.completed) {
                RemoveOneInstance filter2({1, 2});
                injOk = replayMatches(app, params, recorder2.orderLog(),
                                      recOut2, &filter2);
            }

            AppRow row;
            row.ok = cleanOk && injOk;
            row.cells = {app, std::to_string(recorder.orderLog().size()),
                         std::to_string(recorder.orderLog().wireBytes()),
                         TextTable::num(recorder.orderLog().wireBytes() *
                                            1000.0 /
                                            (instrs ? instrs : 1),
                                        1),
                         cleanOk ? "OK" : "FAIL",
                         injOk ? "OK" : "FAIL"};
            return row;
        },
        [&](std::size_t, AppRow &&row) {
            allOk = allOk && row.ok;
            t.addRow(row.cells);
        });
    t.print("Order log size and deterministic replay "
            "(paper: <1MB per run, fully accurate replay)");
    std::printf("%s\n", allOk ? "All replays verified."
                              : "REPLAY VERIFICATION FAILED");
    return allOk ? 0 : 1;
}
