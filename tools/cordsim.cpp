/**
 * @file
 * cordsim -- command-line driver for the CORD simulator.
 *
 * Runs one workload on the simulated CMP with a configurable detector
 * set and prints a run summary: races found by each detector, order
 * log statistics, memory-system behaviour and (optionally) a replay
 * verification pass.  With --campaign N it instead runs a full
 * injection campaign (N uniform sync removals, as bench_detection
 * does), optionally spread over --jobs parallel jobs with
 * bit-identical results for any job count.  With --explore N it runs
 * the same configuration under N schedules (schedule 0 = baseline;
 * docs/SCHEDULING.md), and --replay-sched re-executes a schedule
 * recorded by --explore exactly.  Options accept both "--opt value"
 * and "--opt=value" spellings; any invalid flag value or flag
 * combination exits 2 with a one-line error.  See --help for the full
 * flag list.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "analysis/lint.h"
#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "cord/log_codec.h"
#include "cord/replay.h"
#include "cord/vc_detector.h"
#include "harness/exec.h"
#include "harness/experiments.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "harness/trace.h"
#include "inject/injector.h"
#include "obs/manifest.h"
#include "obs/tracer.h"
#include "sched/explore.h"
#include "sched/perturb.h"
#include "sched/replay.h"
#include "sim/parse_num.h"

using namespace cord;

namespace
{

struct Options
{
    std::string workload = "barnes";
    unsigned scale = 1;
    unsigned threads = 4;
    unsigned cores = 4;
    unsigned load = 100; //!< offered load %, server-family traffic
    std::uint64_t seed = 1;
    std::uint32_t d = 16;
    unsigned campaign = 0; //!< >0 = campaign mode with N injections
    unsigned jobs = 1;     //!< campaign/exploration parallel jobs
    bool haveInjection = false;
    InjectionPick pick;
    bool knownRaces = false;
    bool directory = false;
    std::uint64_t migrate = 0;
    bool replay = false;
    unsigned explore = 0; //!< >0 = schedules to explore
    SchedOptions sched;
    bool haveSched = false;     //!< --sched was given
    bool haveSchedSeed = false; //!< --sched-seed was given
    std::uint64_t schedSeed = 0;
    std::string saveSchedPrefix;  //!< per-schedule log output prefix
    std::string replaySchedPath;  //!< schedule log to replay
    std::string tracePath;    //!< Chrome-trace JSON output
    std::string manifestPath; //!< run-manifest JSON output
    std::string accessTracePath; //!< binary access trace (cordlint)
    std::string logPath;
    std::string heartbeatPath; //!< campaign flight-recorder JSONL
    bool lint = false;
    bool profile = false; //!< overhead-decomposition mode
};

void
usage(std::FILE *to, const char *argv0)
{
    std::fprintf(to,
        "usage: %s [options]\n"
        "\n"
        "Single run (default mode):\n"
        "  --workload NAME     one of the Table-1 analogs (default "
        "barnes)\n"
        "  --scale N           input scale, N >= 1 (default 1)\n"
        "  --threads N         software threads, N >= 1 (default 4)\n"
        "  --cores N           processors, N >= 1 (default 4)\n"
        "  --seed N            run seed (default 1)\n"
        "  --load N            offered load percent for server-family "
        "workloads\n"
        "                      (default 100; docs/WORKLOADS.md)\n"
        "  --d N               CORD sync-read margin D (default 16)\n"
        "  --inject TID:SEQ    remove thread TID's SEQ-th sync "
        "instance\n"
        "  --known-races       include the apps' pre-existing races\n"
        "  --directory         directory coherence instead of "
        "snooping\n"
        "  --migrate N         migrate threads every N instructions\n"
        "  --replay            verify deterministic order-log replay "
        "after the run\n"
        "  --trace FILE        write structured simulator events as "
        "Chrome-trace JSON\n"
        "  --manifest FILE     write the machine-readable run "
        "manifest\n"
        "  --save-trace FILE   dump the binary access trace (cordlint "
        "input)\n"
        "  --save-log FILE     dump the wire-format order log\n"
        "  --lint              run the cordlint checks; exit 1 on "
        "findings\n"
        "  --profile           overhead-attribution mode: run Ideal "
        "and CORD\n"
        "                      back to back and report the "
        "per-mechanism overhead\n"
        "                      decomposition (render a saved manifest "
        "with 'cordstat\n"
        "                      profile')\n"
        "  --list              list available workloads and exit\n"
        "\n"
        "Injection campaign:\n"
        "  --campaign N        run an N-injection campaign (CORD + "
        "VC-L2 vs Ideal);\n"
        "                      honours --jobs/--lint/--manifest, and "
        "--explore M\n"
        "                      explores M schedules per injection\n"
        "                      with --save-trace/--save-log PREFIX, "
        "every completed\n"
        "                      run writes PREFIX.iNNN.sNNN.trace / "
        ".ordlog (cordlint\n"
        "                      check/predict inputs)\n"
        "  --jobs N            parallel jobs (default CORD_JOBS or "
        "1; 0 = one per\n"
        "                      hardware thread); any value is "
        "bit-identical\n"
        "  --heartbeat FILE    stream per-run campaign progress as "
        "crash-safe JSONL\n"
        "                      (cord-heartbeat-v1; summarize with "
        "'cordstat watch')\n"
        "\n"
        "Schedule exploration (docs/SCHEDULING.md):\n"
        "  --explore N         run N schedules of this configuration "
        "(schedule 0 is\n"
        "                      always the unperturbed baseline)\n"
        "  --sched NAME        policy for schedules >= 1: baseline, "
        "perturb (default)\n"
        "                      or pct\n"
        "  --sched-seed N      base seed of the schedule streams "
        "(default: --seed)\n"
        "  --save-sched PREFIX write PREFIX.sNNN.schedlog per explored "
        "schedule\n"
        "  --replay-sched FILE re-execute a recorded schedule log; "
        "exit 0 iff the\n"
        "                      replay reproduced it exactly\n"
        "\n"
        "  --help              print this message and exit\n",
        argv0);
}

/** One-line parse/validation error, exit 2 (satellite contract). */
[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "cordsim: %s (try 'cordsim --help')\n",
                 msg.c_str());
    std::exit(2);
}

/** parseUnsigned, failing with exit 2 on a malformed value. */
std::uint64_t
parseNum(const std::string &flag, const char *s, std::uint64_t min,
         std::uint64_t max = ~std::uint64_t{0})
{
    const ParsedUnsigned r = parseUnsigned(flag, s, min, max);
    if (!r)
        fail(r.error);
    return r.value;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    opt.jobs = defaultJobs();
    bool haveCampaign = false, haveExplore = false, haveJobs = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        // Support --opt=value next to --opt value.
        std::string inlineValue;
        bool haveInline = false;
        if (const std::size_t eq = a.find('=');
            a.size() > 2 && a[0] == '-' && eq != std::string::npos) {
            inlineValue = a.substr(eq + 1);
            a.resize(eq);
            haveInline = true;
        }
        auto next = [&]() -> const char * {
            if (haveInline)
                return inlineValue.c_str();
            if (i + 1 >= argc)
                fail(a + " requires a value");
            return argv[++i];
        };
        auto num = [&](std::uint64_t min,
                       std::uint64_t max = ~std::uint64_t{0}) {
            return parseNum(a, next(), min, max);
        };
        if (a == "--workload") {
            opt.workload = next();
        } else if (a == "--scale") {
            opt.scale = static_cast<unsigned>(num(1, 1u << 20));
        } else if (a == "--threads") {
            opt.threads = static_cast<unsigned>(num(1, 1024));
        } else if (a == "--cores") {
            opt.cores = static_cast<unsigned>(num(1, 1024));
        } else if (a == "--seed") {
            opt.seed = num(0);
        } else if (a == "--load") {
            opt.load = static_cast<unsigned>(num(1, 100000));
        } else if (a == "--d") {
            opt.d = static_cast<std::uint32_t>(num(0, 1u << 30));
        } else if (a == "--campaign") {
            haveCampaign = true;
            opt.campaign = static_cast<unsigned>(num(1, 1u << 20));
        } else if (a == "--jobs") {
            haveJobs = true;
            opt.jobs = resolveJobs(static_cast<unsigned>(num(0, 4096)));
        } else if (a == "--inject") {
            const std::string spec = next();
            const std::size_t colon = spec.find(':');
            if (colon == std::string::npos)
                fail("--inject expects TID:SEQ, got '" + spec + "'");
            opt.haveInjection = true;
            opt.pick.tid = static_cast<ThreadId>(parseNum(
                "--inject TID", spec.substr(0, colon).c_str(), 0, 1023));
            opt.pick.seqInThread = parseNum(
                "--inject SEQ", spec.substr(colon + 1).c_str(), 0);
        } else if (a == "--known-races") {
            opt.knownRaces = true;
        } else if (a == "--directory") {
            opt.directory = true;
        } else if (a == "--migrate") {
            opt.migrate = num(0);
        } else if (a == "--replay") {
            opt.replay = true;
        } else if (a == "--explore") {
            haveExplore = true;
            opt.explore = static_cast<unsigned>(num(1, 100000));
        } else if (a == "--sched") {
            opt.haveSched = true;
            const std::string name = next();
            if (!schedKindFromName(name, opt.sched.kind))
                fail("--sched expects baseline, perturb or pct, got '" +
                     name + "'");
        } else if (a == "--sched-seed") {
            opt.haveSchedSeed = true;
            opt.schedSeed = num(0);
        } else if (a == "--save-sched") {
            opt.saveSchedPrefix = next();
        } else if (a == "--replay-sched") {
            opt.replaySchedPath = next();
        } else if (a == "--trace") {
            opt.tracePath = next();
        } else if (a == "--manifest") {
            opt.manifestPath = next();
        } else if (a == "--save-trace") {
            opt.accessTracePath = next();
        } else if (a == "--save-log") {
            opt.logPath = next();
        } else if (a == "--lint") {
            opt.lint = true;
        } else if (a == "--profile") {
            opt.profile = true;
        } else if (a == "--heartbeat") {
            opt.heartbeatPath = next();
        } else if (a == "--list") {
            for (const auto &n : workloadNames())
                std::printf("%-12s %s\n", n.c_str(),
                            workloadFamily(n).c_str());
            std::exit(0);
        } else if (a == "--help" || a == "-h") {
            usage(stdout, argv[0]);
            std::exit(0);
        } else {
            fail("unknown option '" + a + "'");
        }
    }

    // Flag-combination audit: reject every meaningless combination
    // with a one-line error instead of silently ignoring flags.
    const bool exploring = haveExplore || !opt.replaySchedPath.empty();
    if (opt.haveInjection && opt.pick.tid >= opt.threads)
        fail("--inject thread " + std::to_string(opt.pick.tid) +
             " does not exist with --threads " +
             std::to_string(opt.threads));
    if (!opt.replaySchedPath.empty()) {
        const std::pair<bool, const char *> conflicts[] = {
            {haveExplore, "--explore"},
            {haveCampaign, "--campaign"},
            {opt.replay, "--replay"},
            {opt.lint, "--lint"},
            {!opt.saveSchedPrefix.empty(), "--save-sched"},
            {!opt.manifestPath.empty(), "--manifest"},
            {!opt.accessTracePath.empty(), "--save-trace"},
            {!opt.logPath.empty(), "--save-log"},
        };
        for (const auto &[bad, name] : conflicts)
            if (bad)
                fail(std::string(name) +
                     " cannot be combined with --replay-sched");
    }
    if ((opt.haveSched || opt.haveSchedSeed) && !exploring)
        fail("--sched/--sched-seed require --explore");
    if (!opt.saveSchedPrefix.empty() && !haveExplore)
        fail("--save-sched requires --explore");
    if (!opt.saveSchedPrefix.empty() && haveCampaign)
        fail("--save-sched is not supported with --campaign");
    if (haveExplore && opt.replay)
        fail("--replay only applies to single runs, not --explore");
    if (haveCampaign && opt.replay)
        fail("--replay only applies to single runs, not --campaign");
    if (opt.replay && workloadFamily(opt.workload) == "server")
        fail("--replay does not support the server workload family: "
             "its open-loop pacer reads the simulated clock, so the "
             "instruction stream is timing-dependent and the order "
             "log cannot gate it (use --replay-sched, which replays "
             "the full schedule; see docs/WORKLOADS.md)");
    if (haveCampaign && !opt.tracePath.empty())
        fail("--trace only applies to single runs, not --campaign");
    if (haveExplore && !haveCampaign &&
        (opt.lint || !opt.tracePath.empty() ||
         !opt.accessTracePath.empty() || !opt.logPath.empty()))
        fail("--lint/--trace/--save-trace/--save-log only apply to "
             "single runs, not --explore");
    if (haveJobs && !haveCampaign && !haveExplore)
        fail("--jobs requires --campaign or --explore");
    if (!opt.heartbeatPath.empty() && !haveCampaign)
        fail("--heartbeat requires --campaign");
    if (opt.profile) {
        const std::pair<bool, const char *> conflicts[] = {
            {haveCampaign, "--campaign"},
            {haveExplore, "--explore"},
            {!opt.replaySchedPath.empty(), "--replay-sched"},
            {opt.replay, "--replay"},
            {opt.lint, "--lint"},
            {opt.haveInjection, "--inject"},
            {opt.knownRaces, "--known-races"},
            {!opt.tracePath.empty(), "--trace"},
            {!opt.accessTracePath.empty(), "--save-trace"},
            {!opt.logPath.empty(), "--save-log"},
        };
        for (const auto &[bad, name] : conflicts)
            if (bad)
                fail(std::string(name) +
                     " cannot be combined with --profile");
    }
    if (!opt.haveSchedSeed)
        opt.schedSeed = opt.seed;
    return opt;
}

/** Upper bound on CORD_TRACE_CAPACITY: 2^26 events, a 2 GiB ring. */
constexpr std::uint64_t kMaxTraceCapacity = std::uint64_t{1} << 26;

std::size_t
traceCapacity()
{
    const char *v = std::getenv("CORD_TRACE_CAPACITY");
    if (!v || !*v)
        return EventTracer::kDefaultCapacity;
    return parseNum("CORD_TRACE_CAPACITY", v, 1, kMaxTraceCapacity);
}

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The exploration configuration shared by --explore/--replay-sched. */
ExploreSpec
makeSpec(const Options &opt)
{
    ExploreSpec spec;
    spec.workload = opt.workload;
    spec.params.numThreads = opt.threads;
    spec.params.scale = opt.scale;
    spec.params.seed = opt.seed;
    spec.params.loadPercent = opt.load;
    spec.params.includeKnownRaces = opt.knownRaces;
    spec.machine.numCores = opt.cores;
    spec.machine.coherence = opt.directory ? CoherenceKind::Directory
                                           : CoherenceKind::Snooping;
    spec.machine.migrationPeriodInstrs = opt.migrate;
    spec.sched = opt.sched;
    spec.schedules = opt.explore;
    spec.seed = opt.schedSeed;
    spec.jobs = opt.jobs;
    spec.cordD = opt.d;
    if (opt.haveInjection) {
        spec.haveInjection = true;
        spec.pick = opt.pick;
        spec.maxTicks = 2000000000ULL; // injected runs can hang
    }
    return spec;
}

/**
 * --campaign mode: a full injection campaign of the selected workload
 * (the same experiment bench_detection runs per app), spread over
 * --jobs parallel jobs.  With --explore M every injection is run
 * under M schedules.  With --lint every completed run's artifacts are
 * checked; exit 1 on any finding.
 */
int
runCampaignMode(const Options &opt)
{
    CampaignConfig cfg;
    cfg.workload = opt.workload;
    cfg.params.numThreads = opt.threads;
    cfg.params.scale = opt.scale;
    cfg.params.seed = opt.seed * 7 + 5;
    cfg.params.loadPercent = opt.load;
    cfg.params.includeKnownRaces = opt.knownRaces;
    cfg.machine.numCores = opt.cores;
    cfg.machine.coherence = opt.directory ? CoherenceKind::Directory
                                          : CoherenceKind::Snooping;
    cfg.machine.migrationPeriodInstrs = opt.migrate;
    cfg.injections = opt.campaign;
    cfg.seed = opt.seed * 101 + 13;
    cfg.jobs = opt.jobs;
    if (opt.explore > 0) {
        cfg.schedules = opt.explore;
        cfg.sched = opt.sched;
    }

    CordConfig cc;
    cc.d = opt.d;
    unsigned lintFindings = 0;
    const bool saveRuns =
        !opt.accessTracePath.empty() || !opt.logPath.empty();
    if (opt.lint || saveRuns) {
        cfg.recordTrace = opt.lint || !opt.accessTracePath.empty();
        cfg.onRunDone = [&](const CampaignRunView &view) {
            // Per-run artifact files: PREFIX.iNNN.sNNN.{trace,ordlog}.
            // onRunDone fires in merge order on the driving thread, so
            // plain file writes need no synchronization.
            char tag[24];
            std::snprintf(tag, sizeof tag, ".i%03u.s%03u", view.index,
                          view.schedule);
            if (!opt.accessTracePath.empty() && view.trace)
                saveTrace(*view.trace,
                          opt.accessTracePath + tag + ".trace");
            for (const auto &det : view.detectors) {
                const auto *cordDet =
                    dynamic_cast<const CordDetector *>(det.get());
                if (!cordDet)
                    continue;
                if (!opt.logPath.empty())
                    saveOrderLog(cordDet->orderLog(),
                                 opt.logPath + tag + ".ordlog");
                if (!opt.lint)
                    continue;
                const LintReport rep = lintCordRun(*cordDet, *view.trace);
                if (rep.errors() > 0 || rep.warnings() > 0) {
                    std::fputs(rep.renderText().c_str(), stderr);
                    std::fprintf(stderr,
                                 "cordlint: findings in injection run "
                                 "#%u (schedule %u)\n",
                                 view.index, view.schedule);
                    lintFindings += rep.errors() + rep.warnings();
                }
            }
        };
    }

    // The heartbeat stream is outside the determinism contract: the
    // campaign result and manifest are byte-identical with or without
    // it, for any job count.
    std::unique_ptr<FlightRecorder> flight;
    if (!opt.heartbeatPath.empty()) {
        flight = std::make_unique<FlightRecorder>(opt.heartbeatPath);
        cfg.flight = flight.get();
    }

    const auto wallStart = std::chrono::steady_clock::now();
    const std::string cordLabel = "CORD-D" + std::to_string(opt.d);
    const CampaignResult res = runCampaign(
        cfg, {cordSpecWith(cc, cordLabel), vcL2CacheSpec()});
    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();

    std::printf("campaign      : %s, %u injections x %u schedule(s) on "
                "%u job(s), seed %llu\n",
                opt.workload.c_str(), res.injections, res.schedules,
                opt.jobs,
                static_cast<unsigned long long>(opt.seed));
    TextTable t({"Metric", "Value"});
    t.addRow({"manifested", std::to_string(res.manifested)});
    t.addRow({"manifestation rate",
              TextTable::percent(res.manifestationRate())});
    t.addRow({"timeouts", std::to_string(res.timeouts)});
    t.addRow({"sync instances", std::to_string(res.totalInstances)});
    t.addRow({"ideal raw races", std::to_string(res.idealRawRaces)});
    for (const auto &[label, n] : res.problems)
        t.addRow({"problems:" + label,
                  std::to_string(n) + " (" +
                      TextTable::percent(res.problemRateVsIdeal(label)) +
                      " of Ideal)"});
    for (const auto &[label, n] : res.rawRaces)
        t.addRow({"rawRaces:" + label, std::to_string(n)});
    if (res.schedules > 1) {
        t.addRow({"schedule runs", std::to_string(res.scheduleRuns)});
        t.addRow({"distinct interleavings",
                  std::to_string(res.distinctSignatures)});
        std::string curve;
        for (unsigned c : res.manifestedCum) {
            if (!curve.empty())
                curve += " ";
            curve += std::to_string(c);
        }
        t.addRow({"manifested cum.", curve});
    }
    t.print("Campaign summary");
    std::printf("wall time     : %.3f s\n", wallSeconds);
    if (flight)
        std::printf("heartbeat     : %s (%llu event(s), %llu "
                    "dropped)\n",
                    opt.heartbeatPath.c_str(),
                    static_cast<unsigned long long>(flight->written()),
                    static_cast<unsigned long long>(flight->dropped()));

    if (!opt.manifestPath.empty()) {
        RunManifest m;
        m.tool = "cordsim";
        m.workload = opt.workload;
        m.seed = opt.seed;
        m.setConfig("campaign", std::uint64_t(opt.campaign));
        m.setConfig("family", workloadFamily(opt.workload));
        m.setConfig("scale", std::uint64_t(opt.scale));
        m.setConfig("threads", std::uint64_t(opt.threads));
        m.setConfig("cores", std::uint64_t(opt.cores));
        m.setConfig("d", std::uint64_t(opt.d));
        if (opt.load != 100)
            m.setConfig("load", std::uint64_t(opt.load));
        if (res.schedules > 1) {
            m.setConfig("schedules", std::uint64_t(res.schedules));
            m.setConfig("sched", schedKindName(cfg.sched.kind));
        }
        m.lintVerdict = !opt.lint ? "skipped"
                        : lintFindings ? "findings"
                                       : "clean";
        addCampaignMetrics(m, opt.workload, res);
        // No job count and no volatile fields: the same seed writes a
        // byte-identical campaign manifest at any --jobs value.
        m.save(opt.manifestPath, /*includeVolatile=*/false);
        std::printf("manifest      : %s\n", opt.manifestPath.c_str());
    }
    return (opt.lint && lintFindings) ? 1 : 0;
}

/** --explore mode: N schedules of one configuration. */
int
runExploreMode(const Options &opt)
{
    const ExploreSpec spec = makeSpec(opt);
    const auto wallStart = std::chrono::steady_clock::now();
    const ExploreResult res = exploreSchedules(spec);
    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();

    std::printf("exploration   : %s, %u schedule(s) under %s on %u "
                "worker thread(s), sched-seed %llu\n",
                opt.workload.c_str(), spec.schedules,
                schedKindName(spec.sched.kind), opt.jobs,
                static_cast<unsigned long long>(spec.seed));
    if (opt.haveInjection)
        std::printf("injection     : removed thread %u's instance "
                    "%llu in every schedule\n",
                    opt.pick.tid,
                    static_cast<unsigned long long>(
                        opt.pick.seqInThread));

    TextTable t({"Sched", "Policy", "Done", "Ticks", "Decisions",
                 "Ideal", "CORD", "Signature"});
    for (const ScheduleRun &r : res.runs) {
        t.addRow({std::to_string(r.index),
                  r.index == 0 ? "baseline"
                               : schedKindName(spec.sched.kind),
                  r.completed ? "yes" : "TIMEOUT",
                  std::to_string(r.ticks),
                  std::to_string(r.log.size()),
                  std::to_string(r.idealRacePairs),
                  std::to_string(r.cordRacePairs),
                  hex64(r.signature)});
    }
    t.print("Explored schedules");
    std::printf("distinct interleavings: %u of %u completed\n",
                res.distinctSignatures, res.completedRuns);
    std::printf("racing schedules      : %u (cumulative:",
                res.racingSchedules);
    for (unsigned c : res.racingCum)
        std::printf(" %u", c);
    std::printf(")\n");
    std::printf("wall time     : %.3f s\n", wallSeconds);

    if (!opt.saveSchedPrefix.empty()) {
        for (const ScheduleRun &r : res.runs) {
            char name[32];
            std::snprintf(name, sizeof name, ".s%03u.schedlog",
                          r.index);
            saveScheduleLog(r.log, opt.saveSchedPrefix + name);
        }
        std::printf("schedule logs : %u -> %s.sNNN.schedlog\n",
                    spec.schedules, opt.saveSchedPrefix.c_str());
    }

    if (!opt.manifestPath.empty()) {
        RunManifest m;
        m.tool = "cordsim";
        m.workload = opt.workload;
        m.seed = opt.seed;
        m.setConfig("family", workloadFamily(opt.workload));
        m.setConfig("scale", std::uint64_t(opt.scale));
        m.setConfig("threads", std::uint64_t(opt.threads));
        m.setConfig("cores", std::uint64_t(opt.cores));
        m.setConfig("d", std::uint64_t(opt.d));
        if (opt.load != 100)
            m.setConfig("load", std::uint64_t(opt.load));
        m.setConfig("sched", schedKindName(spec.sched.kind));
        m.setConfig("schedSeed", std::uint64_t(spec.seed));
        if (opt.haveInjection)
            m.setConfig("inject",
                        std::to_string(opt.pick.tid) + ":" +
                            std::to_string(opt.pick.seqInThread));
        // 64-bit signatures go into config strings: metric values are
        // doubles and would silently lose the low bits.
        for (const ScheduleRun &r : res.runs) {
            char key[32];
            std::snprintf(key, sizeof key, "signature.s%03u", r.index);
            m.setConfig(key, hex64(r.signature));
        }
        StatRegistry s;
        s.set("explore.schedules", spec.schedules);
        s.set("explore.completed", res.completedRuns);
        s.set("explore.timeouts", res.timeouts);
        s.set("explore.distinctSignatures", res.distinctSignatures);
        s.set("explore.racingSchedules", res.racingSchedules);
        for (unsigned i = 0; i < res.racingCum.size(); ++i) {
            char key[32];
            std::snprintf(key, sizeof key, "explore.racingCum.%03u", i);
            s.set(key, res.racingCum[i]);
        }
        m.metrics.add("", s);
        m.save(opt.manifestPath, /*includeVolatile=*/false);
        std::printf("manifest      : %s\n", opt.manifestPath.c_str());
    }
    return 0;
}

/**
 * --replay-sched mode: re-execute a recorded schedule and verify the
 * replay was exact -- every recorded decision consumed in order and
 * the interleaving signature reproduced.  Exit 0 iff faithful; the
 * run configuration flags must match the recording's.
 */
int
runReplaySchedMode(const Options &opt)
{
    ScheduleLog log;
    std::string err;
    if (!loadScheduleLog(opt.replaySchedPath, log, &err))
        fail(opt.replaySchedPath + ": " + err);
    // No recording policy stalls longer than Perturb's cap (Baseline
    // and PCT never delay), and replaying a larger Delay would stall
    // the run until the watchdog.
    const Tick maxDelay = PerturbConfig{}.maxDelay;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const ScheduleDecision &d = log.entries()[i];
        if (d.point == SchedPoint::Delay && d.value > maxDelay)
            fail(opt.replaySchedPath + ": decision " + std::to_string(i) +
                 " delays " + std::to_string(d.value) +
                 " ticks, more than any policy records (" +
                 std::to_string(maxDelay) + ")");
    }
    if (log.numThreads != opt.threads)
        fail("schedule log was recorded with " +
             std::to_string(log.numThreads) +
             " threads; rerun with --threads " +
             std::to_string(log.numThreads));

    std::printf("schedule log  : %s (%zu decisions, policy %s, seed "
                "%llu)\n",
                opt.replaySchedPath.c_str(), log.size(),
                schedKindName(static_cast<SchedKind>(log.policyKind)),
                static_cast<unsigned long long>(log.seed));

    ExploreSpec spec = makeSpec(opt);
    if (spec.maxTicks == 0)
        spec.maxTicks = 2000000000ULL; // a diverged replay may hang
    SchedReplayPolicy policy(log);

    // --trace works here because the replay runs on the calling
    // thread: the Chrome trace shows exactly the replayed
    // interleaving, sched_decision events included.
    std::unique_ptr<EventTracer> tracer;
    if (!opt.tracePath.empty())
        tracer = std::make_unique<EventTracer>(traceCapacity());
    ScheduleRun r;
    {
        std::optional<TracerScope> scope;
        if (tracer)
            scope.emplace(*tracer);
        r = runOneSchedule(spec, 0, policy, nullptr);
    }
    if (tracer) {
        saveChromeTrace(*tracer, opt.tracePath);
        std::printf("trace         : %llu events (%llu dropped) -> "
                    "%s\n",
                    static_cast<unsigned long long>(tracer->total()),
                    static_cast<unsigned long long>(tracer->dropped()),
                    opt.tracePath.c_str());
    }

    const bool sigOk = r.signature == log.signature;
    const bool ok =
        r.completed && policy.totalDivergence() == 0 && sigOk;
    std::printf("completed     : %s at tick %llu\n",
                r.completed ? "yes" : "NO (watchdog)",
                static_cast<unsigned long long>(r.ticks));
    std::printf("divergence    : %llu mismatched, %zu unconsumed\n",
                static_cast<unsigned long long>(policy.divergence()),
                policy.remaining());
    std::printf("signature     : %s (recorded %s)\n",
                hex64(r.signature).c_str(),
                hex64(log.signature).c_str());
    std::printf("races         : Ideal=%llu CORD(D=%u)=%llu\n",
                static_cast<unsigned long long>(r.idealRacePairs),
                opt.d,
                static_cast<unsigned long long>(r.cordRacePairs));
    std::printf("replay        : %s\n",
                ok ? "exact (schedule reproduced)" : "DIVERGED");
    return ok ? 0 : 1;
}

/**
 * --profile mode: overhead decomposition (harness/experiments.h).
 * Runs Ideal and CORD back to back and prints where CORD's
 * slowdown comes from, by mechanism; the decomposition sums to the
 * measured overhead by construction.
 */
int
runProfileMode(const Options &opt)
{
    WorkloadParams params;
    params.numThreads = opt.threads;
    params.scale = opt.scale;
    params.seed = opt.seed;
    params.loadPercent = opt.load;
    MachineConfig machine;
    machine.numCores = opt.cores;
    machine.coherence = opt.directory ? CoherenceKind::Directory
                                      : CoherenceKind::Snooping;
    machine.migrationPeriodInstrs = opt.migrate;
    CordConfig cc = CordConfig::forMachine(machine, opt.threads);
    cc.d = opt.d;

    const auto wallStart = std::chrono::steady_clock::now();
    const ProfileReport rep =
        runProfile(opt.workload, params, machine, cc);
    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();

    std::printf("profile       : %s (scale %u, %u threads on %u "
                "cores, seed %llu, D=%u, computeScale %u)\n",
                opt.workload.c_str(), opt.scale, opt.threads,
                opt.cores,
                static_cast<unsigned long long>(opt.seed), opt.d,
                machine.computeScale);
    std::printf("sim ticks     : Ideal=%llu CORD=%llu (overhead %llu, "
                "%.2fx)\n",
                static_cast<unsigned long long>(rep.baselineTicks),
                static_cast<unsigned long long>(rep.cordTicks),
                static_cast<unsigned long long>(rep.overheadTicks),
                rep.relative());

    TextTable t(
        {"Mechanism", "Cycles", "Events", "Share", "Overhead ticks"});
    double sumOverhead = 0.0;
    for (const ProfileMechanism &m : rep.mechanisms) {
        sumOverhead += m.overheadTicks;
        t.addRow({m.key, std::to_string(m.cycles),
                  std::to_string(m.events),
                  TextTable::percent(m.share),
                  TextTable::num(m.overheadTicks, 0)});
    }
    t.print("Overhead decomposition (CORD vs Ideal)");
    std::printf("decomposed    : %.0f of %llu overhead ticks "
                "attributed\n",
                sumOverhead,
                static_cast<unsigned long long>(rep.overheadTicks));
    std::printf("order log     : %llu wire bytes behind \"log\"\n",
                static_cast<unsigned long long>(rep.logWireBytes));

    if (!opt.manifestPath.empty()) {
        RunManifest m;
        m.tool = "cordsim";
        m.workload = opt.workload;
        m.seed = opt.seed;
        m.setConfig("profile", "1");
        m.setConfig("family", workloadFamily(opt.workload));
        m.setConfig("scale", std::uint64_t(opt.scale));
        m.setConfig("threads", std::uint64_t(opt.threads));
        m.setConfig("cores", std::uint64_t(opt.cores));
        m.setConfig("d", std::uint64_t(opt.d));
        if (opt.load != 100)
            m.setConfig("load", std::uint64_t(opt.load));
        m.setConfig("coherence",
                    opt.directory ? "directory" : "snooping");
        m.completed = true;
        m.simTicks = rep.cordTicks;
        m.wallSeconds = wallSeconds;
        m.stampTime();
        addProfileMetrics(m, rep);
        m.save(opt.manifestPath);
        std::printf("manifest      : %s\n", opt.manifestPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    if (!opt.replaySchedPath.empty())
        return runReplaySchedMode(opt);
    if (opt.campaign > 0)
        return runCampaignMode(opt);
    if (opt.explore > 0)
        return runExploreMode(opt);
    if (opt.profile)
        return runProfileMode(opt);

    RunSetup setup;
    setup.workload = opt.workload;
    setup.params.numThreads = opt.threads;
    setup.params.scale = opt.scale;
    setup.params.seed = opt.seed;
    setup.params.loadPercent = opt.load;
    setup.params.includeKnownRaces = opt.knownRaces;
    setup.machine.numCores = opt.cores;
    setup.machine.coherence = opt.directory ? CoherenceKind::Directory
                                            : CoherenceKind::Snooping;
    setup.machine.migrationPeriodInstrs = opt.migrate;
    setup.maxTicks = 0;

    AddressSpace space;
    setup.captureSpace = &space;

    RemoveOneInstance filter(opt.pick);
    if (opt.haveInjection) {
        setup.filter = &filter;
        setup.maxTicks = 2000000000ULL; // injected runs can hang
    }

    CordConfig cc = CordConfig::forMachine(setup.machine, opt.threads);
    cc.d = opt.d;
    CordDetector cord(cc);
    VcConfig vcc = VcConfig::forMachine(setup.machine, opt.threads);
    VcDetector vcd(vcc);
    IdealDetector ideal(opt.threads);
    TraceRecorder trace;
    setup.detectors = {&cord, &vcd, &ideal};
    if (!opt.accessTracePath.empty() || opt.lint)
        setup.detectors.push_back(&trace);

    std::unique_ptr<EventTracer> tracer;
    if (!opt.tracePath.empty())
        tracer = std::make_unique<EventTracer>(traceCapacity());

    const auto wallStart = std::chrono::steady_clock::now();
    RunOutcome out;
    {
        std::optional<TracerScope> scope;
        if (tracer)
            scope.emplace(*tracer);
        out = runWorkload(setup);
    }
    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();

    std::printf("workload      : %s (scale %u, %u threads on %u "
                "cores, seed %llu)\n",
                opt.workload.c_str(), opt.scale, opt.threads, opt.cores,
                static_cast<unsigned long long>(opt.seed));
    if (opt.haveInjection) {
        std::printf("injection     : removed thread %u's instance %llu"
                    " (%s)\n",
                    opt.pick.tid,
                    static_cast<unsigned long long>(
                        opt.pick.seqInThread),
                    filter.fired() ? "fired" : "never reached");
    }
    std::printf("completed     : %s at tick %llu\n",
                out.completed ? "yes" : "NO (watchdog: likely hung)",
                static_cast<unsigned long long>(out.ticks));
    std::printf("accesses      : %llu (%zu shared words touched)\n",
                static_cast<unsigned long long>(out.accesses),
                out.footprintWords);
    std::printf("sync instances: %llu (%llu locks, %llu flag waits)\n",
                static_cast<unsigned long long>(out.totalInstances()),
                static_cast<unsigned long long>(out.lockInstances),
                static_cast<unsigned long long>(out.flagInstances));
    std::printf("races         : CORD(D=%u)=%llu  VC=%llu  Ideal=%llu"
                "\n",
                opt.d,
                static_cast<unsigned long long>(cord.races().pairs()),
                static_cast<unsigned long long>(vcd.races().pairs()),
                static_cast<unsigned long long>(ideal.races().pairs()));
    unsigned shown = 0;
    for (const RaceRecord &r : cord.races().samples()) {
        if (++shown > 6) {
            std::printf("    ... and %zu more\n",
                        cord.races().samples().size() - 6);
            break;
        }
        std::printf("    race: thread %u %s %s at tick %llu\n",
                    r.accessor,
                    r.kind == AccessKind::DataWrite ? "wrote" : "read",
                    space.describe(r.addr).c_str(),
                    static_cast<unsigned long long>(r.tick));
    }
    std::printf("order log     : %zu entries, %zu bytes\n",
                cord.orderLog().size(), cord.orderLog().wireBytes());
    std::printf("CORD traffic  : %llu race checks, %llu memTs updates"
                "\n",
                static_cast<unsigned long long>(
                    cord.stats().get("cord.raceChecks")),
                static_cast<unsigned long long>(
                    cord.stats().get("cord.memTsUpdates")));

    if (tracer) {
        saveChromeTrace(*tracer, opt.tracePath);
        std::printf("trace         : %llu events (%llu dropped) -> %s\n",
                    static_cast<unsigned long long>(tracer->total()),
                    static_cast<unsigned long long>(tracer->dropped()),
                    opt.tracePath.c_str());
    }

    if (!opt.accessTracePath.empty() && out.completed) {
        saveTrace(trace, opt.accessTracePath);
        std::printf("access trace  : %zu events -> %s\n",
                    trace.events().size(), opt.accessTracePath.c_str());
    }

    if (!opt.logPath.empty() && out.completed) {
        saveOrderLog(cord.orderLog(), opt.logPath);
        std::printf("order log     : %zu bytes -> %s\n",
                    cord.orderLog().wireBytes(), opt.logPath.c_str());
    }

    std::string lintVerdict = "skipped";
    int lintExit = 0;
    if (opt.lint && out.completed) {
        const LintReport lint = lintCordRun(cord, trace, opt.threads);
        std::printf("---- cordlint ----\n%s",
                    lint.renderText().c_str());
        lintVerdict = lint.errors() > 0 ? "findings" : "clean";
        if (lint.errors() > 0)
            lintExit = 1;
    }

    if (!opt.manifestPath.empty()) {
        RunManifest m;
        m.tool = "cordsim";
        m.workload = opt.workload;
        m.seed = opt.seed;
        m.setConfig("family", workloadFamily(opt.workload));
        m.setConfig("scale", std::uint64_t(opt.scale));
        m.setConfig("threads", std::uint64_t(opt.threads));
        m.setConfig("cores", std::uint64_t(opt.cores));
        m.setConfig("d", std::uint64_t(opt.d));
        if (opt.load != 100)
            m.setConfig("load", std::uint64_t(opt.load));
        m.setConfig("coherence",
                    opt.directory ? "directory" : "snooping");
        m.setConfig("migrationPeriodInstrs", opt.migrate);
        m.setConfig("knownRaces", opt.knownRaces ? "1" : "0");
        if (opt.haveInjection)
            m.setConfig("inject",
                        std::to_string(opt.pick.tid) + ":" +
                            std::to_string(opt.pick.seqInThread));
        m.completed = out.completed;
        m.simTicks = out.ticks;
        m.lintVerdict = lintVerdict;
        m.wallSeconds = wallSeconds;
        m.stampTime();
        m.metrics.add("", out.stats);
        m.metrics.add("detector.cord", cord.stats());
        m.metrics.add("detector.vc", vcd.stats());
        m.metrics.add("detector.ideal", ideal.stats());
        StatRegistry races;
        races.set("races.cord", cord.races().pairs());
        races.set("races.vc", vcd.races().pairs());
        races.set("races.ideal", ideal.races().pairs());
        m.metrics.add("", races);
        // Tracer self-accounting (obs.tracer.total/dropped) arrives
        // through out.stats -- the runner exports it whenever a tracer
        // is active, so campaign workers report it too.
        m.save(opt.manifestPath);
        std::printf("manifest      : %s\n", opt.manifestPath.c_str());
    }

    if (lintExit != 0)
        return lintExit;

    if (opt.replay && out.completed) {
        RemoveOneInstance filter2(opt.pick);
        RunSetup rep = setup;
        rep.detectors.clear();
        rep.filter = opt.haveInjection ? &filter2 : nullptr;
        ReplayGate gate(cord.orderLog(), opt.threads);
        rep.gate = &gate;
        rep.maxTicks = out.ticks * 500 + 10000000;
        const RunOutcome repOut = runWorkload(rep);
        bool ok = repOut.completed && gate.overrunInstrs() == 0;
        for (unsigned t = 0; ok && t < opt.threads; ++t)
            ok = repOut.readChecksums[t] == out.readChecksums[t];
        std::printf("replay        : %s\n",
                    ok ? "verified (identical values in all threads)"
                       : "FAILED");
        return ok ? 0 : 1;
    }
    return 0;
}
