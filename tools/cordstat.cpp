/**
 * @file
 * cordstat -- inspect the observability artifacts cordsim produces.
 *
 * Subcommands:
 *   show M.json...          pretty-print one or more run manifests
 *   diff A.json B.json      compare two manifests' metrics; exit 1 when
 *                           they differ (--tol PCT allows a relative
 *                           tolerance, e.g. --tol 5)
 *   agg M.json...           aggregate metrics across manifests (count /
 *                           total / mean per metric)
 *   check-trace T.json      validate a Chrome-trace file produced by
 *                           `cordsim --trace`; exit 1 on schema errors
 *   profile M.json...       render the overhead decomposition written
 *                           by `cordsim --profile --manifest`; exit 1
 *                           when a decomposition fails to sum to the
 *                           measured overhead within 1%
 *   watch HB.jsonl          tail/summarize a `cordsim --heartbeat`
 *                           stream: progress, stragglers, timeouts
 *                           (--summary prints the summary only)
 *
 * --jobs N parses and flattens manifests on N worker threads (show and
 * agg over large campaign directories); output order and aggregates
 * are identical for every N.  Defaults to CORD_JOBS, else 1.
 *
 * Exit codes: 0 ok / no differences, 1 differences or invalid trace,
 * 2 usage or I/O error.  Schemas: docs/OBSERVABILITY.md.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/exec.h"
#include "harness/flight.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "sim/parse_num.h"
#include "sim/read_file.h"

using namespace cord;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: cordstat show [--jobs N] M.json...\n"
        "       cordstat diff [--tol PCT] A.json B.json\n"
        "       cordstat agg [--jobs N] M.json...\n"
        "       cordstat check-trace T.json\n"
        "       cordstat profile M.json...\n"
        "       cordstat watch [--summary] HB.jsonl\n");
    std::exit(2);
}

unsigned g_jobs = 1; //!< --jobs: manifest parse/flatten workers

/** One-line usage error for a malformed option value, exit 2. */
[[noreturn]] void
badValue(const std::string &msg)
{
    std::fprintf(stderr, "cordstat: %s\n", msg.c_str());
    std::exit(2);
}

/**
 * Strictly parse a non-negative decimal (--tol): digits
 * with an optional fraction and exponent, nothing else -- no sign,
 * whitespace, hex, inf or nan.
 */
double
parseReal(const std::string &flag, const char *s)
{
    bool ok = (*s >= '0' && *s <= '9') || *s == '.';
    for (const char *p = s; *p && ok; ++p)
        ok = std::strchr("0123456789.eE+-", *p) != nullptr;
    char *end = nullptr;
    errno = 0;
    const double v = ok ? std::strtod(s, &end) : 0.0;
    if (!ok || *end != '\0' || errno == ERANGE || !std::isfinite(v))
        badValue(flag + " expects a non-negative number, got '" + s +
                 "'");
    return v;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::vector<std::uint8_t> bytes;
    std::string err;
    if (!readFileBytes(path, bytes, err)) {
        std::fprintf(stderr, "cordstat: %s\n", err.c_str());
        return false;
    }
    out.assign(bytes.begin(), bytes.end());
    return true;
}

/** Parse @p path as JSON; exits with code 2 on failure. */
JsonValue
loadJson(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        std::exit(2);
    std::string err;
    auto v = JsonValue::parse(text, &err);
    if (!v) {
        std::fprintf(stderr, "cordstat: %s: %s\n", path.c_str(),
                     err.c_str());
        std::exit(2);
    }
    return std::move(*v);
}

/** Parse a manifest and sanity-check its schema tag. */
JsonValue
loadManifest(const std::string &path)
{
    JsonValue m = loadJson(path);
    if (!m.isObject() || m.str("schema") != kManifestSchema) {
        std::fprintf(stderr,
                     "cordstat: %s: not a %s document\n", path.c_str(),
                     kManifestSchema);
        std::exit(2);
    }
    return m;
}

std::map<std::string, double>
manifestMetrics(const JsonValue &m)
{
    if (const JsonValue *metrics = m.find("metrics"))
        return flattenMetricsJson(*metrics);
    return {};
}

std::string
fmtNum(double v)
{
    char buf[64];
    if (std::nearbyint(v) == v && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

int
cmdShow(const std::vector<std::string> &paths)
{
    bool first = true;
    // Workers parse; the merge callback prints in argument order.
    parallelForOrdered(
        paths.size(), g_jobs,
        [&](std::size_t i) { return loadManifest(paths[i]); },
        [&](std::size_t i, JsonValue &&m) {
        const std::string &path = paths[i];
        if (!first)
            std::printf("\n");
        first = false;
        std::printf("== %s ==\n", path.c_str());
        std::printf("tool      : %s\n", m.str("tool").c_str());
        if (const JsonValue *w = m.find("workload"))
            std::printf("workload  : %s\n", w->asString().c_str());
        std::printf("seed      : %s\n", fmtNum(m.num("seed")).c_str());
        std::printf("build     : %s (%s)\n", m.str("git").c_str(),
                    m.str("build").c_str());
        if (const JsonValue *t = m.find("timestamp"))
            std::printf("time      : %s (%.3f s wall)\n",
                        t->asString().c_str(), m.num("wallSeconds"));
        const JsonValue *completed = m.find("completed");
        std::printf("completed : %s\n",
                    (completed && completed->asBool()) ? "yes" : "NO");
        std::printf("simTicks  : %s\n",
                    fmtNum(m.num("simTicks")).c_str());
        std::printf("lint      : %s\n", m.str("lint").c_str());
        if (const JsonValue *cfg = m.find("config")) {
            std::printf("config    :");
            for (std::size_t i = 0; i < cfg->size(); ++i)
                std::printf(" %s=%s", cfg->keys()[i].c_str(),
                            cfg->items()[i].isString()
                                ? cfg->items()[i].asString().c_str()
                                : fmtNum(cfg->items()[i].asNumber())
                                      .c_str());
            std::printf("\n");
        }
        std::printf("metrics   :\n");
        const auto metrics = manifestMetrics(m);
        for (const auto &[name, v] : metrics)
            std::printf("  %-44s %s\n", name.c_str(),
                        fmtNum(v).c_str());
        // A nonzero drop count means the Chrome trace is a truncated
        // view of the run -- surface it instead of letting a partial
        // trace masquerade as a complete one.
        if (const auto it = metrics.find("obs.tracer.dropped");
            it != metrics.end() && it->second > 0)
            std::printf("WARNING   : tracer dropped %s event(s); raise "
                        "CORD_TRACE_CAPACITY\n",
                        fmtNum(it->second).c_str());
        if (const JsonValue *tables = m.find("tables")) {
            for (const JsonValue &t : tables->items())
                std::printf("table     : %s (%zu rows)\n",
                            t.str("title").c_str(),
                            t.find("rows") ? t.find("rows")->size() : 0);
        }
        });
    return 0;
}

int
cmdDiff(const std::vector<std::string> &paths, double tolPct)
{
    if (paths.size() != 2)
        usage();
    const JsonValue a = loadManifest(paths[0]);
    const JsonValue b = loadManifest(paths[1]);
    const auto ma = manifestMetrics(a);
    const auto mb = manifestMetrics(b);

    std::set<std::string> names;
    for (const auto &[k, v] : ma)
        names.insert(k);
    for (const auto &[k, v] : mb)
        names.insert(k);

    unsigned diffs = 0;
    std::printf("%-44s %16s %16s %12s\n", "metric", "a", "b", "delta");
    for (const std::string &name : names) {
        const auto ia = ma.find(name);
        const auto ib = mb.find(name);
        if (ia == ma.end() || ib == mb.end()) {
            ++diffs;
            std::printf("%-44s %16s %16s %12s\n", name.c_str(),
                        ia == ma.end() ? "-" : fmtNum(ia->second).c_str(),
                        ib == mb.end() ? "-" : fmtNum(ib->second).c_str(),
                        "only-one");
            continue;
        }
        const double va = ia->second, vb = ib->second;
        if (va == vb)
            continue;
        const double base = std::max(std::fabs(va), std::fabs(vb));
        const double relPct = base > 0 ? 100.0 * std::fabs(vb - va) / base
                                       : 0.0;
        if (relPct <= tolPct)
            continue;
        ++diffs;
        std::printf("%-44s %16s %16s %12s\n", name.c_str(),
                    fmtNum(va).c_str(), fmtNum(vb).c_str(),
                    fmtNum(vb - va).c_str());
    }
    if (diffs == 0) {
        std::printf("identical metrics (%zu compared, tol %.3g%%)\n",
                    names.size(), tolPct);
        return 0;
    }
    std::printf("%u metric(s) differ\n", diffs);
    return 1;
}

int
cmdAgg(const std::vector<std::string> &paths)
{
    std::map<std::string, std::pair<unsigned, double>> acc; // n, total
    // Server-family runs additionally fold into a per-(workload, load)
    // latency-tail table: averaging p50/p99 across loads would bury
    // exactly the load dependence the serving tier exists to measure.
    struct ServerAcc
    {
        unsigned n = 0;
        double p50 = 0, p99 = 0, dropped = 0, saturated = 0;
    };
    std::map<std::pair<std::string, unsigned>, ServerAcc> server;
    struct AggItem
    {
        std::map<std::string, double> metrics;
        std::string workload;
    };
    // Parsing and flattening dominate; fan them out and fold the
    // per-manifest maps in argument order so totals accumulate in the
    // same sequence (and thus round identically) for any job count.
    parallelForOrdered(
        paths.size(), g_jobs,
        [&](std::size_t i) {
            const JsonValue m = loadManifest(paths[i]);
            return AggItem{manifestMetrics(m), m.str("workload")};
        },
        [&](std::size_t, AggItem &&item) {
            for (const auto &[name, v] : item.metrics) {
                auto &[n, total] = acc[name];
                ++n;
                total += v;
            }
            const auto load = item.metrics.find("server.loadPercent");
            if (load == item.metrics.end())
                return;
            auto get = [&](const char *k) {
                const auto it = item.metrics.find(k);
                return it == item.metrics.end() ? 0.0 : it->second;
            };
            ServerAcc &s =
                server[{item.workload.empty() ? "?" : item.workload,
                        static_cast<unsigned>(load->second)}];
            ++s.n;
            s.p50 += get("server.latencyTicks.p50");
            s.p99 += get("server.latencyTicks.p99");
            s.dropped += get("server.requests.dropped");
            s.saturated += get("server.requests.saturated");
        });
    std::printf("%-44s %5s %16s %16s\n", "metric", "n", "total", "mean");
    for (const auto &[name, nt] : acc)
        std::printf("%-44s %5u %16s %16s\n", name.c_str(), nt.first,
                    fmtNum(nt.second).c_str(),
                    fmtNum(nt.second / nt.first).c_str());
    if (!server.empty()) {
        std::printf("\nserver latency tails per offered load "
                    "(log2-bucket upper-bound estimates)\n");
        std::printf("%-12s %6s %5s %12s %12s %10s %10s\n", "workload",
                    "load%", "n", "p50", "p99", "dropped", "saturated");
        for (const auto &[key, s] : server)
            std::printf("%-12s %6u %5u %12s %12s %10s %10s\n",
                        key.first.c_str(), key.second, s.n,
                        fmtNum(s.p50 / s.n).c_str(),
                        fmtNum(s.p99 / s.n).c_str(),
                        fmtNum(s.dropped / s.n).c_str(),
                        fmtNum(s.saturated / s.n).c_str());
    }
    return 0;
}

int
cmdCheckTrace(const std::string &path)
{
    const JsonValue t = loadJson(path);
    unsigned errors = 0;
    auto fail = [&](const char *what) {
        ++errors;
        std::fprintf(stderr, "check-trace: %s\n", what);
    };

    if (!t.isObject()) {
        fail("root is not an object");
        return 1;
    }
    const JsonValue *section = t.find("cordTrace");
    if (!section || !section->isObject())
        fail("missing cordTrace section");
    else if (section->str("schema") != "cord-trace-v1")
        fail("cordTrace.schema is not cord-trace-v1");

    const JsonValue *events = t.find("traceEvents");
    if (!events || !events->isArray()) {
        fail("missing traceEvents array");
        return 1;
    }

    std::uint64_t instants = 0, metadata = 0;
    std::map<std::pair<double, double>, double> lastTs; // (pid,tid)->ts
    for (const JsonValue &ev : events->items()) {
        if (!ev.isObject()) {
            fail("traceEvents element is not an object");
            break;
        }
        const std::string ph = ev.str("ph");
        if (ph == "M") {
            ++metadata;
            continue;
        }
        if (ph != "i") {
            fail("unexpected event phase (want \"i\" or \"M\")");
            break;
        }
        ++instants;
        if (!ev.find("name") || !ev.find("ts") || !ev.find("pid") ||
            !ev.find("tid")) {
            fail("instant event missing name/ts/pid/tid");
            break;
        }
        // Timestamps must be non-decreasing within a (pid, tid) track:
        // the ring buffer preserves emission order and simulated time
        // never goes backwards.
        const auto track =
            std::make_pair(ev.num("pid"), ev.num("tid"));
        const double ts = ev.num("ts");
        auto it = lastTs.find(track);
        if (it != lastTs.end() && ts < it->second)
            fail("timestamps regress within a track");
        lastTs[track] = ts;
    }

    if (section && section->isObject()) {
        const double total = section->num("totalEvents");
        const double dropped = section->num("droppedEvents");
        if (static_cast<double>(instants) + dropped != total)
            fail("event count mismatch: "
                 "len(traceEvents) + dropped != totalEvents");
    }

    std::printf("%s: %llu events (%llu metadata) on %zu tracks -- %s\n",
                path.c_str(),
                static_cast<unsigned long long>(instants),
                static_cast<unsigned long long>(metadata), lastTs.size(),
                errors == 0 ? "OK" : "INVALID");
    return errors == 0 ? 0 : 1;
}

/**
 * `cordstat profile`: render the per-mechanism overhead decomposition
 * a `cordsim --profile --manifest` run recorded under the
 * "profile.<workload>.*" metric prefix.  Re-checks the decomposition
 * invariant (mechanism overhead ticks sum to the measured CORD-vs-
 * Ideal overhead within 1%) and exits 1 when it fails to hold.
 */
int
cmdProfile(const std::vector<std::string> &paths)
{
    unsigned errors = 0, rendered = 0;
    for (const std::string &path : paths) {
        const JsonValue m = loadManifest(path);
        const auto metrics = manifestMetrics(m);

        // Workloads present: every "profile.<w>.overhead.totalTicks".
        std::vector<std::string> workloads;
        for (const auto &[name, v] : metrics) {
            const std::string pre = "profile.";
            const std::string suf = ".overhead.totalTicks";
            if (name.size() > pre.size() + suf.size() &&
                name.compare(0, pre.size(), pre) == 0 &&
                name.compare(name.size() - suf.size(), suf.size(),
                             suf) == 0)
                workloads.push_back(name.substr(
                    pre.size(), name.size() - pre.size() - suf.size()));
        }
        if (workloads.empty()) {
            std::fprintf(stderr,
                         "cordstat: %s: no profile.* metrics (run "
                         "cordsim --profile --manifest)\n",
                         path.c_str());
            ++errors;
            continue;
        }

        auto get = [&](const std::string &name) {
            const auto it = metrics.find(name);
            return it == metrics.end() ? 0.0 : it->second;
        };

        for (const std::string &w : workloads) {
            const std::string p = "profile." + w + ".";
            const double baseline = get(p + "overhead.baselineTicks");
            const double cordTicks = get(p + "overhead.cordTicks");
            const double overhead = get(p + "overhead.totalTicks");
            std::printf("== %s: %s ==\n", path.c_str(), w.c_str());
            std::printf("sim ticks : Ideal=%s CORD=%s (overhead %s, "
                        "%.3fx)\n",
                        fmtNum(baseline).c_str(),
                        fmtNum(cordTicks).c_str(),
                        fmtNum(overhead).c_str(),
                        baseline > 0 ? cordTicks / baseline : 1.0);

            // Canonical order first, then anything it doesn't cover.
            std::vector<std::string> mechs;
            for (const char *k :
                 {"check", "timestamp", "history", "log"})
                if (metrics.count(p + "mech." + k + ".cycles"))
                    mechs.push_back(k);
            for (const auto &[name, v] : metrics) {
                const std::string mp = p + "mech.";
                const std::string suf = ".cycles";
                if (name.size() > mp.size() + suf.size() &&
                    name.compare(0, mp.size(), mp) == 0 &&
                    name.compare(name.size() - suf.size(), suf.size(),
                                 suf) == 0) {
                    const std::string key = name.substr(
                        mp.size(),
                        name.size() - mp.size() - suf.size());
                    if (std::find(mechs.begin(), mechs.end(), key) ==
                        mechs.end())
                        mechs.push_back(key);
                }
            }

            std::printf("%-10s %14s %12s %8s %16s\n", "mechanism",
                        "cycles", "events", "share", "overhead ticks");
            double attributed = 0;
            for (const std::string &k : mechs) {
                const std::string mp = p + "mech." + k + ".";
                attributed += get(mp + "overheadTicks");
                std::printf("%-10s %14s %12s %7.1f%% %16s\n",
                            k.c_str(),
                            fmtNum(get(mp + "cycles")).c_str(),
                            fmtNum(get(mp + "events")).c_str(),
                            get(mp + "sharePpm") / 1e4,
                            fmtNum(get(mp + "overheadTicks")).c_str());
            }
            const double logBytes = get(p + "log.wireBytes");
            std::printf("order log : %s wire bytes\n",
                        fmtNum(logBytes).c_str());

            const double tol = std::max(1.0, 0.01 * overhead);
            const bool sums = std::fabs(attributed - overhead) <= tol;
            std::printf("decomposed: %s of %s overhead ticks -- %s\n",
                        fmtNum(attributed).c_str(),
                        fmtNum(overhead).c_str(),
                        sums ? "OK (within 1%)" : "MISMATCH");
            if (!sums)
                ++errors;
            ++rendered;
        }
    }
    return errors == 0 && rendered > 0 ? 0 : 1;
}

/** One parsed heartbeat line plus bookkeeping for `cordstat watch`. */
struct WatchState
{
    bool haveBegin = false;
    std::string workload;
    double runs = 0, jobs = 0, schedules = 0;
    double started = 0, finished = 0, timedOut = 0;
    double droppedEvents = 0;
    double trunkSeconds = 0, forks = 0, childPeakRssMb = 0;
    bool haveEnd = false;
    double lastT = 0;
    double wallMin = 0, wallMax = 0, wallSum = 0;
    std::map<double, double> inFlight; //!< run index -> started t
};

/**
 * `cordstat watch`: summarize (or tail) a `cordsim --heartbeat`
 * stream.  Works on live files: a campaign still running simply has
 * no campaign_end yet and its unfinished runs show as in-flight.
 * Exit 0 on a well-formed stream, 1 on schema errors.
 */
int
cmdWatch(const std::string &path, bool summaryOnly)
{
    std::string text;
    if (!readFile(path, text))
        std::exit(2);

    WatchState st;
    unsigned errors = 0, lines = 0;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        if (line.empty())
            continue;
        ++lines;

        std::string err;
        auto v = JsonValue::parse(line, &err);
        if (!v || !v->isObject()) {
            std::fprintf(stderr, "watch: line %u: %s\n", lines,
                         err.c_str());
            ++errors;
            continue;
        }
        const std::string event = v->str("event");
        if (lines == 1 && v->str("schema") != kHeartbeatSchema) {
            std::fprintf(stderr,
                         "watch: %s: first line is not a %s "
                         "campaign_begin\n",
                         path.c_str(), kHeartbeatSchema);
            ++errors;
        }
        st.lastT = v->num("t");
        if (event == "campaign_begin") {
            st.haveBegin = true;
            st.workload = v->str("workload");
            st.runs = v->num("runs");
            st.jobs = v->num("jobs");
            st.schedules = v->num("schedules");
        } else if (event == "run_started") {
            ++st.started;
            st.inFlight[v->num("run")] = v->num("t");
        } else if (event == "run_finished") {
            ++st.finished;
            st.inFlight.erase(v->num("run"));
            const JsonValue *to = v->find("timedOut");
            if (to && to->asBool())
                ++st.timedOut;
            const double wall = v->num("wallSeconds");
            if (st.finished == 1)
                st.wallMin = st.wallMax = wall;
            st.wallMin = std::min(st.wallMin, wall);
            st.wallMax = std::max(st.wallMax, wall);
            st.wallSum += wall;
        } else if (event == "campaign_end") {
            st.haveEnd = true;
            st.droppedEvents = v->num("droppedEvents");
            st.trunkSeconds = v->num("trunkSeconds");
            st.forks = v->num("forks");
            st.childPeakRssMb = v->num("childPeakRssMb");
        } else {
            std::fprintf(stderr, "watch: line %u: unknown event '%s'\n",
                         lines, event.c_str());
            ++errors;
        }
        if (!summaryOnly)
            std::printf("%10.3fs  %s\n", v->num("t"), line.c_str());
    }

    if (!st.haveBegin) {
        std::fprintf(stderr, "watch: %s: no campaign_begin event\n",
                     path.c_str());
        return 1;
    }

    std::printf("campaign  : %s, %s run(s) x %s schedule(s) on %s "
                "job(s) -- %s\n",
                st.workload.c_str(), fmtNum(st.runs).c_str(),
                fmtNum(st.schedules).c_str(), fmtNum(st.jobs).c_str(),
                st.haveEnd ? "finished" : "IN PROGRESS");
    std::printf("progress  : %s started, %s finished (%s timed out) "
                "at t=%.3fs\n",
                fmtNum(st.started).c_str(), fmtNum(st.finished).c_str(),
                fmtNum(st.timedOut).c_str(), st.lastT);
    if (st.finished > 0)
        std::printf("run wall  : min %.3fs / mean %.3fs / max %.3fs\n",
                    st.wallMin, st.wallSum / st.finished, st.wallMax);
    // Forked fan-out (harness/trunk.h): run wall above is each
    // child's suffix; the shared prefix ran once, in the trunk.
    if (st.forks > 0)
        std::printf("trunk     : %.3fs simulating, %s fork(s), child "
                    "peak RSS %.1f MiB\n",
                    st.trunkSeconds, fmtNum(st.forks).c_str(),
                    st.childPeakRssMb);
    // Stragglers: started but unfinished runs, oldest first -- on a
    // finished stream these are runs that died without a record.
    for (const auto &[run, t0] : st.inFlight)
        std::printf("straggler : run %s in flight since t=%.3fs "
                    "(%.3fs and counting)\n",
                    fmtNum(run).c_str(), t0, st.lastT - t0);
    if (st.droppedEvents > 0)
        std::printf("WARNING   : %s heartbeat event(s) dropped by the "
                    "byte budget\n",
                    fmtNum(st.droppedEvents).c_str());
    return errors == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    double tolPct = 0.0;
    g_jobs = defaultJobs();
    bool summary = false;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                badValue(a + " needs a value");
            return argv[++i];
        };
        if (a == "--tol") {
            tolPct = parseReal(a, value());
        } else if (a == "--jobs") {
            const ParsedUnsigned n = parseUnsigned(a, value(), 0, 4096);
            if (!n)
                badValue(n.error);
            g_jobs = resolveJobs(static_cast<unsigned>(n.value));
        } else if (a == "--summary") {
            summary = true;
        } else {
            paths.push_back(a);
        }
    }

    if (paths.empty())
        usage();

    if (cmd == "show")
        return cmdShow(paths);
    if (cmd == "diff")
        return cmdDiff(paths, tolPct);
    if (cmd == "agg")
        return cmdAgg(paths);
    if (cmd == "check-trace" && paths.size() == 1)
        return cmdCheckTrace(paths[0]);
    if (cmd == "profile")
        return cmdProfile(paths);
    if (cmd == "watch" && paths.size() == 1)
        return cmdWatch(paths[0], summary);
    usage();
}
