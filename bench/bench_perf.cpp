/**
 * @file
 * Host-throughput benchmark for the simulation kernel and detectors
 * (docs/PERFORMANCE.md): how many kernel events, simulated ticks and
 * committed accesses the simulator retires per wall-clock second for
 * every application x {CORD, Ideal, VC-InfCache} detector.
 *
 * Unlike the figure reproductions, the numbers here are about *host*
 * cost, not simulated time.  They are unpaired single-host numbers;
 * perf changes are judged by campbench's paired runs
 * (docs/PERFORMANCE.md §3).
 *
 * Each cell is the median of `--repeat` timed repetitions (after
 * `--warmup` untimed ones); every repetition constructs a fresh
 * detector so state never carries over and results stay bit-identical
 * to a single run.  Measurements are strictly sequential -- there is
 * no --jobs here, because concurrent timing runs would contend for the
 * host CPU and poison each other's medians.
 *
 * Writes a `BENCH_perf.json` run manifest (override with --perf-out)
 * with per-cell and aggregate rates.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cord/ideal_detector.h"
#include "harness/runner.h"
#include "obs/manifest.h"

using namespace cord;

namespace
{

/** One measured app x detector cell. */
struct PerfCell
{
    std::string app;
    std::string detector;
    double medianSec = 0.0;
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    std::uint64_t accesses = 0;

    double eventsPerSec() const { return rate(events); }
    double ticksPerSec() const { return rate(ticks); }
    double accessesPerSec() const { return rate(accesses); }

    double
    rate(std::uint64_t n) const
    {
        return medianSec > 0.0 ? static_cast<double>(n) / medianSec
                               : 0.0;
    }
};

/** "Baseline" spec: no detector attached at all (pure simulation). */
std::vector<DetectorSpec>
perfSpecs()
{
    std::vector<DetectorSpec> specs;
    specs.push_back(cordSpec(16, "CORD"));
    specs.push_back(DetectorSpec{
        "Ideal",
        [](const MachineConfig &, unsigned numThreads) {
            return std::make_unique<IdealDetector>(numThreads);
        }});
    DetectorSpec vc = vcInfCacheSpec();
    vc.label = "VC";
    specs.push_back(vc);
    return specs;
}

/** Time one app under one spec; fresh detector per repetition. */
PerfCell
measure(const std::string &app, const DetectorSpec &spec)
{
    WorkloadParams params;
    params.numThreads = kDefaultNumThreads;
    params.scale = bench::envUnsigned("CORD_SCALE", 2);
    params.seed = bench::workloadSeed();
    MachineConfig machine;

    PerfCell cell;
    cell.app = app;
    cell.detector = spec.label;

    auto once = [&]() {
        auto det = spec.make(machine, params.numThreads);
        RunSetup setup;
        setup.workload = app;
        setup.params = params;
        setup.machine = machine;
        setup.detectors.push_back(det.get());
        // CORD's check/update traffic rides the timed buses, as in the
        // Figure 11 runs, so its bus-charging path is part of the cost.
        if (auto *cord = dynamic_cast<CordDetector *>(det.get()))
            setup.timingCord = cord;
        const RunOutcome out = runWorkload(setup);
        cord_assert(out.completed, "perf run did not complete: ", app);
        cell.events = out.events;
        cell.ticks = out.ticks;
        cell.accesses = out.accesses;
    };
    cell.medianSec = bench::timedMedianSec(once);
    return cell;
}

std::string
fmtRate(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
}

std::string
fmtSec(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv,
                     {"--json", "--repeat", "--warmup", "--perf-out"});
    const bool json = bench::args().json;
    if (!json)
        std::printf("CORD reproduction -- kernel/detector host "
                    "throughput (median of %u)\n",
                    bench::args().repeat);

    RunManifest manifest;
    manifest.tool = "bench_perf";
    manifest.seed = bench::envUnsigned("CORD_SEED", 1);
    manifest.setConfig("scale",
                       std::uint64_t(bench::envUnsigned("CORD_SCALE", 2)));
    manifest.setConfig("threads", std::uint64_t(kDefaultNumThreads));
    manifest.setConfig("repeat", std::uint64_t(bench::args().repeat));
    manifest.setConfig("warmup", std::uint64_t(bench::args().warmup));
    manifest.stampTime();

    TextTable t({"App", "Detector", "Median(s)", "Events/s", "Ticks/s",
                 "Accesses/s"});

    const auto apps = bench::appList();
    const auto specs = perfSpecs();
    std::vector<PerfCell> cells;
    for (const std::string &app : apps) {
        std::fprintf(stderr, "  [perf] %s...\n", app.c_str());
        for (const DetectorSpec &spec : specs)
            cells.push_back(measure(app, spec));
    }

    double totalSec = 0.0;
    std::uint64_t totalEvents = 0, totalTicks = 0, totalAccesses = 0;
    std::map<std::string, std::pair<double, std::uint64_t>> perDet;
    for (const PerfCell &c : cells) {
        t.addRow({c.app, c.detector, fmtSec(c.medianSec),
                  fmtRate(c.eventsPerSec()), fmtRate(c.ticksPerSec()),
                  fmtRate(c.accessesPerSec())});
        StatRegistry reg;
        reg.set("medianNanos",
                std::uint64_t(std::llround(c.medianSec * 1e9)));
        reg.set("events", c.events);
        reg.set("ticks", c.ticks);
        reg.set("accesses", c.accesses);
        reg.set("eventsPerSec",
                std::uint64_t(std::llround(c.eventsPerSec())));
        reg.set("ticksPerSec",
                std::uint64_t(std::llround(c.ticksPerSec())));
        reg.set("accessesPerSec",
                std::uint64_t(std::llround(c.accessesPerSec())));
        manifest.metrics.add(c.app + "." + c.detector, reg);
        manifest.simTicks += c.ticks;

        totalSec += c.medianSec;
        totalEvents += c.events;
        totalTicks += c.ticks;
        totalAccesses += c.accesses;
        auto &d = perDet[c.detector];
        d.first += c.medianSec;
        d.second += c.events;
    }

    // Aggregates: total events retired over total measured seconds.
    const double totalEps =
        totalSec > 0.0 ? static_cast<double>(totalEvents) / totalSec
                       : 0.0;
    {
        StatRegistry reg;
        reg.set("medianNanos",
                std::uint64_t(std::llround(totalSec * 1e9)));
        reg.set("events", totalEvents);
        reg.set("ticks", totalTicks);
        reg.set("accesses", totalAccesses);
        reg.set("eventsPerSec", std::uint64_t(std::llround(totalEps)));
        reg.set("ticksPerSec",
                std::uint64_t(std::llround(
                    totalSec > 0.0 ? totalTicks / totalSec : 0.0)));
        reg.set("accessesPerSec",
                std::uint64_t(std::llround(
                    totalSec > 0.0 ? totalAccesses / totalSec : 0.0)));
        manifest.metrics.add("perf.total", reg);
    }
    for (const auto &[det, agg] : perDet) {
        StatRegistry reg;
        reg.set("medianNanos",
                std::uint64_t(std::llround(agg.first * 1e9)));
        reg.set("events", agg.second);
        reg.set("eventsPerSec",
                std::uint64_t(std::llround(
                    agg.first > 0.0 ? agg.second / agg.first : 0.0)));
        manifest.metrics.add("perf." + det, reg);
        t.addRow({"Total", det, fmtSec(agg.first),
                  fmtRate(agg.first > 0.0 ? agg.second / agg.first
                                          : 0.0),
                  "", ""});
    }

    const std::string title =
        "Host throughput: events/ticks/accesses per second";
    if (json)
        t.printJson(title);
    else
        t.print(title);

    manifest.tables.push_back({title, t.headers(), t.rows()});
    const std::string outPath = bench::args().perfOutPath.empty()
                                    ? "BENCH_perf.json"
                                    : bench::args().perfOutPath;
    manifest.wallSeconds = bench::elapsedSec();
    manifest.save(outPath);
    if (!json)
        std::printf("manifest: %s (total %s events/s)\n",
                    outPath.c_str(), fmtRate(totalEps).c_str());
    return 0;
}
