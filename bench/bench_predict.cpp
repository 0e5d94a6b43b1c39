/**
 * @file
 * Offline-analyzer throughput benchmark (docs/ANALYSIS.md): for every
 * application, record one baseline access trace, then time each
 * offline race analyzer over it --
 *
 *   HB-full     HbAnalysis::analyze, full per-word vector histories
 *   HB-epoch    analyzeEpochCompressed, same race set, epoch state
 *   Predict     PredictiveAnalysis, the weak-order race predictor
 *   Predict/8   the same with --sample-rate 8
 *
 * and report ns per analyzed access plus the pairs/words each one
 * found.  The epoch-compressed analyzer must produce the identical
 * race set to HB-full (asserted here on every app); CI's predict job
 * additionally gates on `predict.total.epochSpeedupPct >= 200`, i.e.
 * the compression is worth >= 2x on the recorded traces.
 *
 * Writes a `BENCH_predict.json` run manifest (override with
 * --perf-out); each cell is the median of `--repeat` repetitions.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/epoch_analyzer.h"
#include "analysis/hb_analyzer.h"
#include "analysis/predict.h"
#include "bench_common.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "obs/manifest.h"

using namespace cord;

namespace
{

/** One measured app x analyzer cell. */
struct Cell
{
    std::string app;
    std::string analyzer;
    double medianSec = 0.0;
    std::uint64_t accesses = 0; //!< trace events fed to the analyzer
    std::uint64_t pairs = 0;
    std::uint64_t words = 0;

    double
    nsPerAccess() const
    {
        return accesses ? medianSec * 1e9 /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/** Record the baseline trace of one app (no injection, no policy). */
DecodedTrace
recordTrace(const std::string &app)
{
    WorkloadParams params;
    params.numThreads = kDefaultNumThreads;
    params.scale = bench::envUnsigned("CORD_SCALE", 2);
    params.seed = bench::workloadSeed();
    MachineConfig machine;

    TraceRecorder rec;
    RunSetup setup;
    setup.workload = app;
    setup.params = params;
    setup.machine = machine;
    setup.detectors.push_back(&rec);
    const RunOutcome out = runWorkload(setup);
    cord_assert(out.completed, "trace run did not complete: ", app);

    DecodedTrace trace;
    trace.events = rec.events();
    trace.threadEnds = rec.threadEnds();
    return trace;
}

template <typename Fn>
Cell
measure(const std::string &app, const std::string &analyzer,
        const DecodedTrace &trace, Fn &&run)
{
    Cell c;
    c.app = app;
    c.analyzer = analyzer;
    c.accesses = trace.events.size();
    c.medianSec = bench::timedMedianSec([&]() { run(c); });
    return c;
}

std::string
fmtNs(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv,
                     {"--json", "--repeat", "--warmup", "--perf-out"});
    if (!bench::args().json)
        std::printf("CORD reproduction -- offline analyzer throughput "
                    "(median of %u)\n",
                    bench::args().repeat);

    RunManifest manifest;
    manifest.tool = "bench_predict";
    manifest.seed = bench::envUnsigned("CORD_SEED", 1);
    manifest.setConfig("scale",
                       std::uint64_t(bench::envUnsigned("CORD_SCALE", 2)));
    manifest.setConfig("threads", std::uint64_t(kDefaultNumThreads));
    manifest.setConfig("repeat", std::uint64_t(bench::args().repeat));
    manifest.setConfig("warmup", std::uint64_t(bench::args().warmup));
    manifest.stampTime();

    TextTable t({"App", "Analyzer", "ns/access", "Pairs", "Words"});

    double fullSec = 0.0, epochSec = 0.0;
    std::vector<Cell> cells;
    for (const std::string &app : bench::appList()) {
        std::fprintf(stderr, "  [predict] %s...\n", app.c_str());
        const DecodedTrace trace = recordTrace(app);

        Cell full = measure(app, "HB-full", trace, [&](Cell &c) {
            const HbAnalysis hb = HbAnalysis::analyze(trace);
            c.pairs = hb.pairs();
            c.words = hb.racyWords().size();
        });
        Cell epoch = measure(app, "HB-epoch", trace, [&](Cell &c) {
            const HbAnalysis hb = analyzeEpochCompressed(trace);
            c.pairs = hb.pairs();
            c.words = hb.racyWords().size();
        });
        cord_assert(full.pairs == epoch.pairs &&
                        full.words == epoch.words,
                    "epoch-compressed race set diverged on ", app);
        Cell pred = measure(app, "Predict", trace, [&](Cell &c) {
            const PredictiveAnalysis p =
                PredictiveAnalysis::analyze(trace);
            c.pairs = p.pairs();
            c.words = p.racyWords().size();
        });
        PredictOptions sopt;
        sopt.sampleRate = 8;
        Cell samp = measure(app, "Predict/8", trace, [&](Cell &c) {
            const PredictiveAnalysis p =
                PredictiveAnalysis::analyze(trace, 0, sopt);
            c.pairs = p.pairs();
            c.words = p.racyWords().size();
        });

        fullSec += full.medianSec;
        epochSec += epoch.medianSec;
        cells.push_back(full);
        cells.push_back(epoch);
        cells.push_back(pred);
        cells.push_back(samp);
    }

    for (const Cell &c : cells) {
        t.addRow({c.app, c.analyzer, fmtNs(c.nsPerAccess()),
                  std::to_string(c.pairs), std::to_string(c.words)});
        StatRegistry reg;
        reg.set("medianNanos",
                std::uint64_t(std::llround(c.medianSec * 1e9)));
        reg.set("accesses", c.accesses);
        reg.set("pairs", c.pairs);
        reg.set("words", c.words);
        reg.set("nsPerAccessX1000",
                std::uint64_t(std::llround(c.nsPerAccess() * 1000.0)));
        manifest.metrics.add(c.app + "." + c.analyzer, reg);
    }

    // The CI gate: epoch compression must be >= 2x across the suite
    // (speedup stored as a percentage: 200 == 2.0x).
    const double speedup = epochSec > 0.0 ? fullSec / epochSec : 0.0;
    {
        StatRegistry reg;
        reg.set("fullNanos",
                std::uint64_t(std::llround(fullSec * 1e9)));
        reg.set("epochNanos",
                std::uint64_t(std::llround(epochSec * 1e9)));
        reg.set("epochSpeedupPct",
                std::uint64_t(std::llround(speedup * 100.0)));
        manifest.metrics.add("predict.total", reg);
    }

    if (bench::args().json)
        t.printJson("Offline analyzer throughput");
    else
        t.print("Offline analyzer throughput");
    std::printf("epoch speedup : %.2fx over HB-full\n", speedup);

    const std::string out = bench::args().perfOutPath.empty()
                                ? "BENCH_predict.json"
                                : bench::args().perfOutPath;
    manifest.wallSeconds = bench::elapsedSec();
    manifest.save(out, /*includeVolatile=*/true);
    std::printf("manifest      : %s\n", out.c_str());
    return 0;
}
