#include "harness/experiments.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <set>

#include "cord/ideal_detector.h"
#include "harness/exec.h"
#include "harness/trunk.h"
#include "inject/injector.h"
#include "obs/manifest.h"
#include "sim/logging.h"
#include "sim/rng.h"

namespace cord
{

DetectorSpec
cordSpec(std::uint32_t d, std::string label)
{
    CordConfig cfg;
    cfg.d = d;
    if (label.empty())
        label = "CORD-D" + std::to_string(d);
    return cordSpecWith(cfg, std::move(label));
}

DetectorSpec
cordSpecWith(const CordConfig &cfg, std::string label)
{
    return DetectorSpec{
        label,
        [cfg, label](const MachineConfig &machine, unsigned numThreads) {
            CordConfig c = cfg;
            c.deriveGeometry(machine, numThreads);
            return std::make_unique<CordDetector>(c, label);
        }};
}

namespace
{

DetectorSpec
vcSpec(std::string label, bool infinite, const CacheGeometry &geo)
{
    return DetectorSpec{
        label,
        [infinite, geo, label](const MachineConfig &machine,
                               unsigned numThreads) {
            VcConfig c = VcConfig::forMachine(machine, numThreads);
            c.infiniteResidency = infinite;
            c.residency = geo;
            return std::make_unique<VcDetector>(c, label);
        }};
}

} // namespace

DetectorSpec
vcInfCacheSpec()
{
    return vcSpec("VC-InfCache", true, CacheGeometry::paperL2());
}

DetectorSpec
vcL2CacheSpec()
{
    return vcSpec("VC-L2Cache", false, CacheGeometry::paperL2());
}

DetectorSpec
vcL1CacheSpec()
{
    return vcSpec("VC-L1Cache", false, CacheGeometry::paperL1());
}

namespace
{

/**
 * The fresh-run fan-out: every (injection, schedule) pair simulated
 * from the start on the thread pool, each run hermetic (its own
 * detectors, trace and policy), results handed to @p merge in flat
 * order on the calling thread after the heartbeat and cfg.onRunDone
 * have seen them.  Schedule 0 of every injection runs without a
 * policy, so a schedules == 1 campaign is byte-identical to the
 * forked fan-out.
 */
template <typename MergeFn>
void
runFresh(const CampaignConfig &cfg, const std::vector<DetectorSpec> &specs,
         const RunSetup &base, const std::vector<InjectionPick> &picks,
         MergeFn &merge)
{
    struct RunArtifacts
    {
        RunOutcome out;
        std::unique_ptr<IdealDetector> ideal;
        std::vector<std::unique_ptr<Detector>> dets;
        std::unique_ptr<TraceRecorder> trace;
        std::unique_ptr<SchedulePolicy> policy;
        double wallSec = 0.0; //!< host duration (heartbeat only)
    };

    auto runOne = [&](std::size_t f) {
        const std::size_t i = f / cfg.schedules;
        const unsigned s = static_cast<unsigned>(f % cfg.schedules);
        if (cfg.flight)
            cfg.flight->runStarted(static_cast<unsigned>(f),
                                   static_cast<unsigned>(i), s);
        const auto t0 = std::chrono::steady_clock::now();
        RunArtifacts art;
        RemoveOneInstance filter(picks[i]);
        art.ideal =
            std::make_unique<IdealDetector>(cfg.params.numThreads);
        for (const DetectorSpec &spec : specs)
            art.dets.push_back(
                spec.make(cfg.machine, cfg.params.numThreads));
        if (cfg.recordTrace)
            art.trace = std::make_unique<TraceRecorder>();

        RunSetup setup = base;
        setup.filter = &filter;
        setup.detectors.push_back(art.ideal.get());
        for (auto &d : art.dets)
            setup.detectors.push_back(d.get());
        if (art.trace)
            setup.detectors.push_back(art.trace.get());
        if (s > 0) {
            art.policy = makeSchedulePolicy(cfg.sched, cfg.seed, i, s);
            setup.sched = art.policy.get();
        }

        art.out = runWorkload(setup);
        art.wallSec = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        return art;
    };

    auto mergeOne = [&](std::size_t f, RunArtifacts &&art) {
        const unsigned i = static_cast<unsigned>(f / cfg.schedules);
        const unsigned s = static_cast<unsigned>(f % cfg.schedules);
        const RunRecord run =
            makeRunRecord(art.out, *art.ideal, art.dets, art.wallSec);
        if (cfg.flight)
            cfg.flight->runFinished(static_cast<unsigned>(f), i, s,
                                    run.completed, !run.completed,
                                    run.wallSec, run.ticks,
                                    run.ideal.pairs);
        if (cfg.onRunDone && run.completed)
            cfg.onRunDone(CampaignRunView{i, s, art.out, *art.ideal,
                                          art.dets, art.trace.get()});
        merge(f, run);
    };

    parallelForOrdered(
        static_cast<std::size_t>(cfg.injections) * cfg.schedules,
        cfg.jobs, runOne, mergeOne);
}

} // namespace

CampaignResult
runCampaign(const CampaignConfig &cfg,
            const std::vector<DetectorSpec> &specs)
{
    CampaignResult res;
    cord_assert(cfg.schedules >= 1,
                "a campaign needs at least one schedule per injection");

    // The fan-out (docs/INTERNALS.md §5).  Schedule-0 runs without a
    // per-run hook fork from one trunk run (harness/trunk.h); explored
    // schedules and hooks that need each run's detectors or trace run
    // every injection afresh on a thread pool.
    const bool forked =
        cfg.schedules == 1 && !cfg.onRunDone && !cfg.recordTrace;

    // Census run: clean execution; count removable synchronization
    // instances.  The fresh path also verifies here that the workload
    // is data-race-free (Ideal must report nothing -- our no-false-
    // positive baseline); the forked path gets that from the trunk,
    // which watches the identical clean execution.
    RunSetup base;
    base.workload = cfg.workload;
    base.params = cfg.params;
    base.machine = cfg.machine;
    RunSetup census = base;
    IdealDetector cleanIdeal(cfg.params.numThreads);
    if (!forked)
        census.detectors.push_back(&cleanIdeal);
    const RunOutcome censusOut = runWorkload(census);
    cord_assert(censusOut.completed, "census run did not complete");
    res.totalInstances = censusOut.totalInstances();
    base.maxTicks = censusOut.ticks * 25 + 1000000; // injection watchdog
    auto checkClean = [&](std::uint64_t idealRaces) {
        res.cleanIdealRaces = idealRaces;
        if (res.cleanIdealRaces != 0) {
            cord_warn("workload ", cfg.workload, " has ",
                      res.cleanIdealRaces,
                      " pre-existing data races in a clean run");
        }
    };
    if (!forked)
        checkClean(cleanIdeal.races().pairs());

    // Injection picks draw from their own substream of the campaign
    // seed (kPickStreamTag), disjoint from every schedule stream: the
    // schedules axis never changes which instances get removed.
    Rng rng = Rng(cfg.seed).deriveStream(kPickStreamTag);
    res.injections = cfg.injections;
    res.schedules = cfg.schedules;

    // Draw every injection pick up front from the campaign RNG, so the
    // pick sequence is a pure function of the seed and never depends on
    // how the runs are later scheduled across workers.
    std::vector<InjectionPick> picks;
    picks.reserve(cfg.injections);
    for (unsigned i = 0; i < cfg.injections; ++i)
        picks.push_back(pickUniformInstance(censusOut.syncCensus, rng));

    if (cfg.flight)
        cfg.flight->campaignBegin(cfg.workload,
                                  cfg.injections * cfg.schedules,
                                  cfg.injections, cfg.schedules,
                                  cfg.jobs);

    // Per-injection aggregation across its schedules.  Merges arrive
    // in flat order (f = injection * schedules + schedule), so one
    // accumulator suffices: reset at schedule 0, folded into the
    // campaign totals after the last schedule.
    struct InjectionAgg
    {
        bool manifested = false;
        unsigned firstSched = 0;
        std::set<std::uint64_t> sigs;
        std::vector<char> detProblem;
    };
    InjectionAgg agg;
    std::vector<unsigned> manifestedAt; // firstSched per manifested inj.

    // The one merge both fan-outs feed, in flat order.
    auto merge = [&](std::size_t f, const RunRecord &run) {
        const unsigned s = static_cast<unsigned>(f % cfg.schedules);
        if (s == 0) {
            agg.manifested = false;
            agg.firstSched = 0;
            agg.sigs.clear();
            agg.detProblem.assign(specs.size(), 0);
        }

        if (!run.completed) {
            // The injected bug (or an unlucky schedule) hung the run.
            // Count it, record which run it was, and keep the partial
            // detector state out of the detection accounting below.
            ++res.timeouts;
            res.timedOutRuns.push_back(static_cast<unsigned>(f));
        } else {
            ++res.scheduleRuns;
            agg.sigs.insert(run.signature);
            if (run.ideal.problem) {
                if (!agg.manifested) {
                    agg.manifested = true;
                    agg.firstSched = s;
                }
                res.idealRawRaces += run.ideal.pairs;
                for (std::size_t d = 0; d < specs.size(); ++d) {
                    if (run.dets[d].problem)
                        agg.detProblem[d] = 1;
                    res.rawRaces[specs[d].label] += run.dets[d].pairs;
                }
            }
        }

        if (s + 1 == cfg.schedules) {
            // Last schedule of this injection: fold the accumulator.
            res.distinctSignatures += agg.sigs.size();
            if (agg.manifested) {
                ++res.manifested;
                manifestedAt.push_back(agg.firstSched);
                for (std::size_t d = 0; d < specs.size(); ++d)
                    if (agg.detProblem[d])
                        ++res.problems[specs[d].label];
            }
        }
    };

    double trunkSeconds = 0.0;
    unsigned forks = 0;
    double childPeakRssMb = 0.0;
    if (forked) {
        const TrunkResult trunk =
            runTrunk(base, specs, picks, cfg.jobs, cfg.flight);
        checkClean(trunk.cleanIdealRaces);
        for (std::size_t i = 0; i < trunk.runs.size(); ++i)
            merge(i, trunk.runs[i]);
        trunkSeconds = trunk.trunkSeconds;
        forks = trunk.forks;
        childPeakRssMb = trunk.childPeakRssMb;
    } else {
        runFresh(cfg, specs, base, picks, merge);
    }

    res.manifestedCum.assign(cfg.schedules, 0);
    for (unsigned first : manifestedAt)
        for (unsigned s = first; s < cfg.schedules; ++s)
            ++res.manifestedCum[s];
    if (cfg.flight)
        cfg.flight->campaignEnd(res.scheduleRuns, res.timeouts,
                                trunkSeconds, forks, childPeakRssMb);
    return res;
}

void
addCampaignMetrics(RunManifest &m, const std::string &app,
                   const CampaignResult &r)
{
    StatRegistry s;
    s.set("injections", r.injections);
    s.set("manifested", r.manifested);
    s.set("timeouts", r.timeouts);
    s.set("syncInstances", r.totalInstances);
    s.set("cleanIdealRaces", r.cleanIdealRaces);
    s.set("idealRawRaces", r.idealRawRaces);
    for (const auto &[label, n] : r.problems)
        s.set("problems." + label, n);
    for (const auto &[label, n] : r.rawRaces)
        s.set("rawRaces." + label, n);
    if (r.schedules > 1) {
        s.set("schedules", r.schedules);
        s.set("scheduleRuns", r.scheduleRuns);
        s.set("distinctSignatures", r.distinctSignatures);
        // Zero-padded so the rendered (sorted) keys keep curve order.
        for (unsigned i = 0; i < r.manifestedCum.size(); ++i) {
            char key[32];
            std::snprintf(key, sizeof key, "manifestedCum.%03u", i);
            s.set(key, r.manifestedCum[i]);
        }
    }
    m.metrics.add("campaign." + app, s);

    if (!r.timedOutRuns.empty()) {
        std::string runs;
        for (unsigned i : r.timedOutRuns) {
            if (!runs.empty())
                runs += ",";
            runs += std::to_string(i);
        }
        m.setConfig("timeoutRuns." + app, runs);
    }
}

namespace
{

RequestTraffic
requestTraffic(const StatRegistry &s)
{
    RequestTraffic t;
    t.latencyTicks = s.histogram("server.latencyTicks");
    t.completed = s.get("server.requests.completed");
    t.dropped = s.get("server.requests.dropped");
    t.saturated = s.get("server.requests.saturated");
    return t;
}

} // namespace

PerfPoint
runPerf(const std::string &workload, const WorkloadParams &params,
        const MachineConfig &machine, const CordConfig &cordCfg)
{
    PerfPoint p;
    RunSetup run;
    run.workload = workload;
    run.params = params;
    run.machine = machine;

    // Baseline: no order-recording, no detection hardware at all.
    const RunOutcome base = runWorkload(run);
    cord_assert(base.completed, workload,
                ": baseline perf run did not complete");
    p.baselineTicks = base.ticks;
    p.syncInstances = base.totalInstances();
    p.baselineTraffic = requestTraffic(base.stats);

    // CORD attached, its traffic charged to the address/timestamp bus.
    CordConfig cfg = cordCfg;
    cfg.deriveGeometry(machine, params.numThreads);
    CordDetector cord(cfg);
    run.detectors.push_back(&cord);
    run.timingCord = &cord;
    const RunOutcome out = runWorkload(run);
    cord_assert(out.completed, workload, ": CORD perf run did not complete");
    p.cordTicks = out.ticks;
    p.cordCharges = out.cordCharges;
    p.cordTraffic = requestTraffic(out.stats);
    p.raceCheckTraffic = cord.stats().get("cord.raceChecks");
    p.memTsTraffic = cord.stats().get("cord.memTsUpdates");
    p.logEntries = cord.stats().get("cord.logEntries");
    p.logWireBytes = cord.stats().get("cord.logWireBytes");
    return p;
}

ProfileReport
runProfile(const std::string &workload, const WorkloadParams &params,
           const MachineConfig &machine, const CordConfig &cordCfg)
{
    const PerfPoint p = runPerf(workload, params, machine, cordCfg);
    ProfileReport r;
    r.workload = workload;
    r.baselineTicks = p.baselineTicks;
    r.cordTicks = p.cordTicks;
    r.logWireBytes = p.logWireBytes;
    r.overheadTicks =
        r.cordTicks > r.baselineTicks ? r.cordTicks - r.baselineTicks : 0;

    // Attributed bus cycles per mechanism.  The order log is written
    // back to memory asynchronously by the log writer (paper
    // Section 2.7.1) and deliberately not injected into the simulated
    // timing (determinism); its cost is analytic: one off-chip line
    // transfer per cache line of wire bytes.
    const std::uint64_t lineBytes = machine.l2.lineBytes;
    const std::uint64_t logChunks =
        lineBytes ? (r.logWireBytes + lineBytes - 1) / lineBytes : 0;
    const std::uint64_t logCycles =
        logChunks * static_cast<std::uint64_t>(machine.offChipBusOccupancy);

    const CordCharges &c = p.cordCharges;
    r.mechanisms = {
        {"check", c.check.cycles, p.raceCheckTraffic, 0, 0},
        {"timestamp", c.timestamp.cycles, c.timestamp.charges, 0, 0},
        {"history", c.history.cycles, c.history.charges, 0, 0},
        {"log", logCycles, p.logEntries, 0, 0},
    };
    std::uint64_t attributed = 0;
    for (const ProfileMechanism &m : r.mechanisms)
        attributed += m.cycles;
    for (ProfileMechanism &m : r.mechanisms) {
        if (attributed == 0)
            continue;
        m.share = static_cast<double>(m.cycles) /
                  static_cast<double>(attributed);
        m.overheadTicks =
            m.share * static_cast<double>(r.overheadTicks);
    }
    return r;
}

void
addProfileMetrics(RunManifest &m, const ProfileReport &r)
{
    StatRegistry s;
    s.set("overhead.baselineTicks", r.baselineTicks);
    s.set("overhead.cordTicks", r.cordTicks);
    s.set("overhead.totalTicks", r.overheadTicks);
    s.set("log.wireBytes", r.logWireBytes);
    for (const ProfileMechanism &mech : r.mechanisms) {
        const std::string base = "mech." + mech.key;
        s.set(base + ".cycles", mech.cycles);
        s.set(base + ".events", mech.events);
        // Shares in parts per million and prorated ticks rounded to
        // integers: deterministic counters, exact to < 1e-6.
        s.set(base + ".sharePpm",
              static_cast<std::uint64_t>(mech.share * 1e6 + 0.5));
        s.set(base + ".overheadTicks",
              static_cast<std::uint64_t>(mech.overheadTicks + 0.5));
    }
    m.metrics.add("profile." + r.workload, s);
}

} // namespace cord
