/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries: the
 * application list, command-line flags, environment-variable
 * overrides, and campaign helpers.
 *
 * Command-line flags (parseArgs).  Each binary names the flags it
 * reads; any other argument exits 2 with a usage line listing only
 * that binary's flags.
 *   --jobs N         run campaign injections (and per-app overhead
 *                    run pairs) on N worker threads (harness/exec.h);
 *                    0 = one per hardware thread.  Results are bit-identical for
 *                    every N given the same seed.
 *   --manifest FILE  write a deterministic cord-manifest-v1 document
 *                    with every campaign's metrics (cordstat-readable)
 *   --json           print result tables as JSON
 *   --repeat N       timed repetitions per measurement (median-of-N
 *                    reporting; N >= 1, default 5)
 *   --warmup N       untimed warmup repetitions before measuring
 *                    (default 1)
 *   --perf-out FILE  override the wall-clock timing manifest path of
 *                    binaries that emit one (bench_perf writes
 *                    BENCH_perf.json by default)
 *   --load N         offered-load percentage for server-family
 *                    workloads (100 = nominal arrival rate; splash
 *                    apps ignore it).  Default: first CORD_LOAD entry,
 *                    else 100.
 *
 * Environment knobs (all optional):
 *   CORD_SCALE       workload input scale      (default 2)
 *   CORD_INJECTIONS  injections per app        (default 30)
 *   CORD_SEED        campaign base seed        (default 1)
 *   CORD_APPS        comma-separated app list  (default: the 12
 *                    splash-family apps; server apps opt in by name)
 *   CORD_LOAD        comma-separated load-percentage sweep for
 *                    bench_server (default "50,100,200"); a single
 *                    value also sets the --load default everywhere
 *   CORD_JOBS        default for --jobs        (default 1)
 *   CORD_LINT        when set and nonzero, run the cordlint checks
 *                    (docs/ANALYSIS.md) on every experiment run's
 *                    artifacts and abort on any finding
 *   CORD_VERBOSITY   simulator log chatter (sim/logging.h): 0 silences
 *                    warn() and inform(), 1 keeps warnings only,
 *                    2 (default) prints everything; panics and fatals
 *                    are never suppressed
 */

#ifndef CORD_BENCH_COMMON_H
#define CORD_BENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/lint.h"
#include "harness/exec.h"
#include "harness/experiments.h"
#include "harness/table.h"
#include "obs/manifest.h"
#include "sim/logging.h"
#include "sim/parse_num.h"
#include "sim/rng.h"
#include "workloads/workload.h"

namespace cord
{
namespace bench
{

/** The bench flags' values (see the file comment). */
struct BenchArgs
{
    std::string tool = "bench";  //!< basename of argv[0]
    unsigned jobs = 1;           //!< campaign/perf worker threads
    std::string manifestPath;    //!< "" = no manifest
    bool json = false;           //!< machine-readable tables
    unsigned repeat = 5;         //!< timed repetitions (median-of-N)
    unsigned warmup = 1;         //!< untimed repetitions first
    std::string perfOutPath;     //!< "" = the binary's default
    unsigned load = 0;           //!< 0 = resolve from CORD_LOAD / 100

    /** Process start, captured by parseArgs: the reference point of
     *  elapsedSec() for manifest wallSeconds stamps. */
    std::chrono::steady_clock::time_point start;
};

/** The parsed flags (parseArgs fills them; defaults before that). */
inline BenchArgs &
args()
{
    static BenchArgs a;
    return a;
}

/**
 * Strictly parse @p text (sim/parse_num.h) as an unsigned in
 * [@p min, @p max]; a malformed value exits 2 with a message naming
 * @p what.
 */
inline unsigned
parseUnsignedOrExit(const std::string &what, const std::string &text,
                    unsigned min = 0,
                    unsigned max = std::numeric_limits<unsigned>::max())
{
    const ParsedUnsigned r = parseUnsigned(what, text, min, max);
    if (!r) {
        std::fprintf(stderr, "%s: %s\n", args().tool.c_str(),
                     r.error.c_str());
        std::exit(2);
    }
    return static_cast<unsigned>(r.value);
}

/** Environment knob @p name (at least @p min), or @p dflt when unset
 *  or empty. */
inline unsigned
envUnsigned(const char *name, unsigned dflt, unsigned min = 0)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return dflt;
    return parseUnsignedOrExit(name, v, min);
}

/**
 * Substream tags for deriving the bench binaries' seeds from the
 * CORD_SEED base via Rng::deriveSeed, replacing the historical ad-hoc
 * `seed * k + c` arithmetic (which made nearby base seeds produce
 * correlated workload shapes).  One tag per independent stream:
 * workload shape, campaign injection picks, and bench_orderlog's
 * deliberately distinct corpus stream.
 */
constexpr std::uint64_t kBenchWorkloadSeedTag = 0xbe5d;
constexpr std::uint64_t kBenchCampaignSeedTag = 0xca3b;
constexpr std::uint64_t kBenchOrderlogSeedTag = 0x0a6c;

/** The CORD_SEED base every bench stream is derived from. */
inline std::uint64_t
baseSeed()
{
    return envUnsigned("CORD_SEED", 1);
}

/** Workload-shape seed (WorkloadParams::seed) for bench runs. */
inline std::uint64_t
workloadSeed()
{
    return Rng::deriveSeed(baseSeed(), kBenchWorkloadSeedTag);
}

/** Campaign injection-pick seed (CampaignConfig::seed). */
inline std::uint64_t
campaignSeed()
{
    return Rng::deriveSeed(baseSeed(), kBenchCampaignSeedTag);
}

/** A flag parseArgs knows, and its value's name in usage lines. */
struct BenchFlag
{
    std::string_view name;
    const char *value; //!< nullptr: the flag takes no value
};

inline constexpr BenchFlag kBenchFlags[] = {
    {"--jobs", "N"},       {"--manifest", "FILE"}, {"--json", nullptr},
    {"--repeat", "N"},     {"--warmup", "N"},      {"--perf-out", "FILE"},
    {"--load", "N"}};

/**
 * Parse the bench flags named in @p reads (the ones the calling binary
 * reads).  Call first thing in main; any other argument exits 2 with a
 * usage line listing @p reads.  --jobs defaults to CORD_JOBS (else 1).
 */
inline void
parseArgs(int argc, char **argv,
          std::initializer_list<std::string_view> reads)
{
    BenchArgs &a = args();
    a.start = std::chrono::steady_clock::now();
    if (argc > 0) {
        const char *slash = std::strrchr(argv[0], '/');
        a.tool = slash ? slash + 1 : argv[0];
    }
    std::string usage = "usage: " + a.tool;
    for (const std::string_view flag : reads) {
        const auto *f = std::find_if(
            std::begin(kBenchFlags), std::end(kBenchFlags),
            [&](const BenchFlag &k) { return k.name == flag; });
        if (f == std::end(kBenchFlags))
            cord_panic("parseArgs: unknown bench flag ", flag);
        usage += " [" + std::string(flag) +
                 (f->value ? std::string(" ") + f->value : "") + "]";
    }
    a.jobs = defaultJobs();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (std::find(reads.begin(), reads.end(), arg) == reads.end()) {
            std::fprintf(stderr, "%s\n", usage.c_str());
            std::exit(2);
        }
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             a.tool.c_str(), arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs") {
            a.jobs =
                resolveJobs(parseUnsignedOrExit(arg, value(), 0, 4096));
        } else if (arg == "--manifest") {
            a.manifestPath = value();
        } else if (arg == "--json") {
            a.json = true;
        } else if (arg == "--repeat") {
            a.repeat = parseUnsignedOrExit(arg, value(), 1);
        } else if (arg == "--warmup") {
            a.warmup = parseUnsignedOrExit(arg, value());
        } else if (arg == "--perf-out") {
            a.perfOutPath = value();
        } else { // --load
            a.load = parseUnsignedOrExit(arg, value(), 1);
        }
    }
}

/** Split a comma-separated list (helper for env knobs). */
inline std::vector<std::string>
splitCommaList(const char *v)
{
    std::vector<std::string> out;
    if (!v)
        return out;
    std::string cur;
    for (const char *p = v;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
            if (*p == '\0')
                break;
        } else {
            cur += *p;
        }
    }
    return out;
}

/**
 * The entries of comma-separated environment knob @p name (empty when
 * unset or empty).  A knob that is set but names no entry (",") exits
 * 2 with a message naming the @p what it should have listed.
 */
inline std::vector<std::string>
envList(const char *name, const char *what)
{
    const char *v = std::getenv(name);
    std::vector<std::string> out = splitCommaList(v);
    if (v && *v && out.empty()) {
        std::fprintf(stderr, "%s: %s named no %s\n",
                     args().tool.c_str(), name, what);
        std::exit(2);
    }
    return out;
}

/**
 * The CORD_LOAD sweep for bench_server: offered-load percentages, one
 * measurement point each.  Default covers under-, nominal and over-
 * load so the latency knee is visible.
 */
inline std::vector<unsigned>
loadLevels()
{
    std::vector<unsigned> levels;
    for (const std::string &tok : envList("CORD_LOAD", "load levels"))
        levels.push_back(parseUnsignedOrExit("CORD_LOAD", tok, 1));
    if (levels.empty())
        levels = {50, 100, 200};
    return levels;
}

/** The --load value after resolving its CORD_LOAD / 100 default. */
inline unsigned
loadPercent()
{
    if (args().load != 0)
        return args().load;
    const std::vector<unsigned> levels = loadLevels();
    const char *env = std::getenv("CORD_LOAD");
    return env && *env && levels.size() == 1 ? levels[0] : 100;
}

/**
 * The apps a bench binary iterates: CORD_APPS when set, else the 12
 * splash-family analogs.  The server family is excluded by default so
 * the paper-reproduction tables keep their historical app set;
 * bench_server (and anyone else) selects it with
 * workloadNames("server") or CORD_APPS.
 */
inline std::vector<std::string>
appList()
{
    std::vector<std::string> apps = envList("CORD_APPS", "apps");
    if (apps.empty())
        apps = workloadNames("splash");
    return apps;
}

/**
 * When CORD_LINT is set, make the campaign lint every run's artifacts
 * (order log + trace + online race report) and abort on any error- or
 * warning-level finding, so accuracy regressions cannot slip through
 * a figure reproduction silently.
 */
inline void
attachLintObserver(CampaignConfig &cfg)
{
    if (envUnsigned("CORD_LINT", 0) == 0)
        return;
    cfg.recordTrace = true;
    const std::string app = cfg.workload;
    cfg.onRunDone = [app](const CampaignRunView &view) {
        for (const auto &det : view.detectors) {
            const auto *cord =
                dynamic_cast<const CordDetector *>(det.get());
            if (!cord)
                continue;
            const LintReport rep = lintCordRun(*cord, view.trace->trace());
            if (rep.errors() > 0 || rep.warnings() > 0) {
                std::fputs(rep.renderText().c_str(), stderr);
                cord_fatal("cordlint failed for ", app,
                           " injection run #", view.index,
                           " (detector ", det->name(), ")");
            }
        }
    };
}

/** Standard campaign configuration for one app. */
inline CampaignConfig
campaignFor(const std::string &app)
{
    CampaignConfig cfg;
    cfg.workload = app;
    cfg.params.numThreads = kDefaultNumThreads;
    cfg.params.scale = envUnsigned("CORD_SCALE", 2);
    cfg.params.loadPercent = loadPercent();
    cfg.params.seed = workloadSeed();
    cfg.injections = envUnsigned("CORD_INJECTIONS", 30);
    cfg.seed = campaignSeed();
    cfg.jobs = args().jobs;
    attachLintObserver(cfg);
    return cfg;
}

/**
 * The Figure 11 compute multiplier: workload compute blocks run 256
 * times longer on the overhead machine, restoring a realistic
 * compute-to-synchronization ratio (DESIGN.md Section 5 point 7).
 */
constexpr unsigned kOverheadComputeScale = 256;

/** The machine every overhead report (Figure 11, the directory
 *  extension, the scaling study) times CORD on. */
inline MachineConfig
overheadMachine(unsigned cores, CoherenceKind coherence)
{
    MachineConfig m;
    m.numCores = cores;
    m.coherence = coherence;
    m.computeScale = kOverheadComputeScale;
    return m;
}

/**
 * The baseline/CORD run pair (runPerf) of every app in @p apps on each
 * of @p machines, with @p threads software threads.  Apps fan out over
 * --jobs workers; the result is in app order, one PerfPoint per
 * machine in each row, bit-identical for every job count.
 */
inline std::vector<std::vector<PerfPoint>>
overheadByApp(const std::vector<std::string> &apps,
              const std::vector<MachineConfig> &machines, unsigned threads)
{
    WorkloadParams params;
    params.numThreads = threads;
    params.scale = envUnsigned("CORD_SCALE", 2);
    params.seed = workloadSeed();
    std::vector<std::vector<PerfPoint>> rows;
    parallelForOrdered(
        apps.size(), args().jobs,
        [&](std::size_t i) {
            std::fprintf(stderr, "  [perf] %s...\n", apps[i].c_str());
            std::vector<PerfPoint> row;
            for (const MachineConfig &machine : machines)
                row.push_back(
                    runPerf(apps[i], params, machine, CordConfig{}));
            return row;
        },
        [&](std::size_t, std::vector<PerfPoint> &&row) {
            rows.push_back(std::move(row));
        });
    return rows;
}

/**
 * Wall seconds since parseArgs ran: what manifest-writing binaries
 * stamp into RunManifest::wallSeconds (a volatile field; campaign
 * manifests saved with includeVolatile=false still suppress it).
 * Before this helper every bench manifest recorded "wallSeconds": 0.
 */
inline double
elapsedSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - args().start)
        .count();
}

/**
 * Write the per-app campaign metrics to --manifest (no-op without the
 * flag).  The manifest is saved without volatile fields and without
 * recording the job count, so reruns -- sequential or parallel -- of
 * the same seed produce byte-identical documents.
 */
inline void
writeCampaignManifest(
    const std::vector<std::pair<std::string, CampaignResult>> &results)
{
    if (args().manifestPath.empty())
        return;
    RunManifest m;
    m.tool = args().tool;
    m.seed = envUnsigned("CORD_SEED", 1);
    m.setConfig("scale", std::uint64_t(envUnsigned("CORD_SCALE", 2)));
    m.setConfig("injections",
                std::uint64_t(envUnsigned("CORD_INJECTIONS", 30)));
    m.setConfig("threads", std::uint64_t(kDefaultNumThreads));
    for (const auto &[app, r] : results)
        addCampaignMetrics(m, app, r);
    m.save(args().manifestPath, /*includeVolatile=*/false);
    std::fprintf(stderr, "  [manifest] %s\n",
                 args().manifestPath.c_str());
}

/** Run the same campaign for every app; returns per-app results.
 *  Injection runs within each campaign are spread over --jobs worker
 *  threads; apps stay sequential so progress streams and the worker
 *  count is not oversubscribed. */
inline std::vector<std::pair<std::string, CampaignResult>>
runAllCampaigns(const std::vector<DetectorSpec> &specs)
{
    std::vector<std::pair<std::string, CampaignResult>> out;
    for (const std::string &app : appList()) {
        std::fprintf(stderr, "  [campaign] %s...\n", app.c_str());
        out.emplace_back(app, runCampaign(campaignFor(app), specs));
    }
    writeCampaignManifest(out);
    return out;
}

/**
 * One wall-clock measurement: the median over `--repeat` timed
 * repetitions (after `--warmup` untimed ones) of @p fn.  Medians shrug
 * off the occasional scheduler hiccup that poisons means, which keeps
 * BENCH_perf.json comparable across noisy CI machines.
 * @return median seconds per repetition
 */
template <typename Fn>
double
timedMedianSec(Fn &&fn)
{
    using Clock = std::chrono::steady_clock;
    for (unsigned i = 0; i < args().warmup; ++i)
        fn();
    std::vector<double> secs;
    secs.reserve(args().repeat);
    for (unsigned i = 0; i < args().repeat; ++i) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        secs.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    std::sort(secs.begin(), secs.end());
    return secs[secs.size() / 2];
}

/** Average of a per-app metric (simple mean, as the paper's bars). */
template <typename Fn>
double
averageOver(const std::vector<std::pair<std::string, CampaignResult>> &rs,
            Fn &&metric)
{
    if (rs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &[app, r] : rs)
        sum += metric(r);
    return sum / static_cast<double>(rs.size());
}

} // namespace bench
} // namespace cord

#endif // CORD_BENCH_COMMON_H
