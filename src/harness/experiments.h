/**
 * @file
 * Experiment drivers for the paper's evaluation (Section 4):
 * injection campaigns (Figures 10, 12-17) and performance-overhead
 * comparisons (Figure 11).
 */

#ifndef CORD_HARNESS_EXPERIMENTS_H
#define CORD_HARNESS_EXPERIMENTS_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cord/cord_detector.h"
#include "cord/vc_detector.h"
#include "harness/flight.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "sched/factory.h"

namespace cord
{

/** A named detector configuration instantiated fresh for every run.
 *  make() receives the run's machine so specs can derive their full
 *  geometry (core count, memory-timestamp banking on directory
 *  machines) from the single source of truth. */
struct DetectorSpec
{
    std::string label;
    std::function<std::unique_ptr<Detector>(const MachineConfig &machine,
                                            unsigned numThreads)>
        make;
};

/** CORD with margin @p d and default paper parameters. */
DetectorSpec cordSpec(std::uint32_t d, std::string label = "");

/** CORD with an explicit configuration (ablations); numCores and
 *  numThreads are overwritten per run. */
DetectorSpec cordSpecWith(const CordConfig &cfg, std::string label);

/** Vector-clock InfCache / L2Cache / L1Cache configurations. */
DetectorSpec vcInfCacheSpec();
DetectorSpec vcL2CacheSpec();
DetectorSpec vcL1CacheSpec();

/** Everything an observer may inspect after one campaign run. */
struct CampaignRunView
{
    unsigned index = 0;           //!< injection index within campaign
    unsigned schedule = 0;        //!< schedule index within injection
    const RunOutcome &outcome;
    const Detector &ideal;        //!< the run's Ideal ground truth
    /** Per-spec detector instances, parallel to the spec list. */
    const std::vector<std::unique_ptr<Detector>> &detectors;
    /** Access trace; non-null only with CampaignConfig::recordTrace. */
    const TraceRecorder *trace = nullptr;
};

/** One injection campaign over one application. */
struct CampaignConfig
{
    std::string workload = "barnes";
    WorkloadParams params;
    MachineConfig machine;
    unsigned injections = 40;
    std::uint64_t seed = 0xC02D; // campaign RNG seed

    /** Schedules explored per injection (>= 1).  Schedule 0 of every
     *  injection runs without a policy -- byte-identical to a
     *  schedules == 1 campaign -- and schedules >= 1 run under `sched`
     *  seeded with scheduleSeed(seed, injection, schedule). */
    unsigned schedules = 1;
    SchedOptions sched;

    /** Parallel jobs for the injection runs: simulating processes,
     *  the trunk included, when the runs fork from one trunk
     *  (harness/trunk.h); worker threads when every run is simulated
     *  afresh (harness/exec.h).  Every job count yields bit-identical
     *  results for a given seed: picks are drawn up front and results
     *  merge in submission order.  0 means one job per hardware
     *  thread. */
    unsigned jobs = 1;

    /** Attach a TraceRecorder to every injection run (needed by
     *  post-run lint observers; costs memory proportional to the
     *  access count).  Selects the fresh-run fan-out. */
    bool recordTrace = false;

    /** Called after every completed injection run, e.g. to lint the
     *  run's artifacts (tools/cordlint does the same offline).
     *  Selects the fresh-run fan-out. */
    std::function<void(const CampaignRunView &)> onRunDone;

    /** Optional heartbeat stream (harness/flight.h); not owned.  The
     *  heartbeat is outside the determinism contract: campaign results
     *  and manifests are byte-identical with or without it, for any
     *  job count. */
    FlightRecorder *flight = nullptr;
};

/** Aggregated campaign outcome. */
struct CampaignResult
{
    unsigned injections = 0;
    unsigned schedules = 1;  //!< schedules explored per injection
    unsigned manifested = 0; //!< injections Ideal saw race in >=1 sched
    unsigned timeouts = 0;   //!< schedule runs that hit the watchdog
    unsigned scheduleRuns = 0; //!< schedule runs that completed
    std::uint64_t totalInstances = 0; //!< census: removable instances
    std::uint64_t cleanIdealRaces = 0; //!< should be 0 (no false pos.)

    /** Flat run indices (injection * schedules + schedule) that hit the
     *  watchdog.  Timed-out runs contribute to `timeouts` only: their
     *  partial detector state is excluded from manifested/problems/
     *  rawRaces so incomplete runs cannot skew the Figure 10
     *  percentages. */
    std::vector<unsigned> timedOutRuns;

    /** Per-detector: manifested injections in which it found >=1 race
     *  during a manifested schedule run. */
    std::map<std::string, unsigned> problems;

    /** Per-detector: racing pairs summed over manifested runs. */
    std::map<std::string, std::uint64_t> rawRaces;

    std::uint64_t idealRawRaces = 0;

    /** Distinct interleaving signatures, summed over injections (how
     *  much of the schedule space the exploration actually sampled). */
    std::uint64_t distinctSignatures = 0;

    /** manifestedCum[s]: injections that manifested within schedules
     *  0..s -- the manifestation-vs-schedule-count curve, cumulative
     *  and therefore monotonically non-decreasing by construction.
     *  manifestedCum[schedules - 1] == manifested. */
    std::vector<unsigned> manifestedCum;

    /** Figure 10 quantity. */
    double
    manifestationRate() const
    {
        return injections ? static_cast<double>(manifested) / injections
                          : 0.0;
    }

    /** Problem detection rate of @p label relative to Ideal. */
    double
    problemRateVsIdeal(const std::string &label) const
    {
        auto it = problems.find(label);
        if (it == problems.end() || manifested == 0)
            return 0.0;
        return static_cast<double>(it->second) / manifested;
    }

    /** Problem detection of @p label relative to detector @p base. */
    double
    problemRateVs(const std::string &label,
                  const std::string &base) const
    {
        auto a = problems.find(label);
        auto b = problems.find(base);
        if (a == problems.end() || b == problems.end() ||
            b->second == 0)
            return 0.0;
        return static_cast<double>(a->second) / b->second;
    }

    /** Raw race detection of @p label relative to Ideal. */
    double
    rawRateVsIdeal(const std::string &label) const
    {
        auto it = rawRaces.find(label);
        if (it == rawRaces.end() || idealRawRaces == 0)
            return 0.0;
        return static_cast<double>(it->second) / idealRawRaces;
    }

    /** Raw race detection of @p label relative to @p base. */
    double
    rawRateVs(const std::string &label, const std::string &base) const
    {
        auto a = rawRaces.find(label);
        auto b = rawRaces.find(base);
        if (a == rawRaces.end() || b == rawRaces.end() || b->second == 0)
            return 0.0;
        return static_cast<double>(a->second) / b->second;
    }
};

/**
 * Run a full injection campaign: one clean census run (counting the
 * removable instances) followed by `injections` single-removal runs,
 * each observed by its own Ideal detector plus its own instances of
 * every spec, and a clean run's Ideal verifying there are no
 * pre-existing races.
 *
 * Two fan-outs give identical results (docs/INTERNALS.md §5).  With
 * schedules == 1, no onRunDone and no recordTrace, the runs fork from
 * one trunk run at their picked instances (harness/trunk.h); a child
 * feeds the specs its suffix only once its Ideal reports a race, and a
 * child that dies fails the campaign with a std::runtime_error naming
 * the injection.  Otherwise every run is simulated from the start on a
 * thread pool.
 */
CampaignResult runCampaign(const CampaignConfig &cfg,
                           const std::vector<DetectorSpec> &specs);

struct RunManifest;

/**
 * Record one campaign's outcome under the "campaign.<app>" metric
 * prefix of @p m (injections, manifested, timeouts, per-detector
 * problems/rawRaces) and, when runs timed out, a "timeoutRuns.<app>"
 * config entry listing their injection indices.  Deterministic for a
 * fixed seed regardless of CampaignConfig::jobs.
 */
void addCampaignMetrics(RunManifest &m, const std::string &app,
                        const CampaignResult &r);

/** A server-family run's request traffic (zero for other families). */
struct RequestTraffic
{
    HistogramStat latencyTicks;  //!< "server.latencyTicks"
    std::uint64_t completed = 0; //!< "server.requests.completed"
    std::uint64_t dropped = 0;   //!< "server.requests.dropped"
    std::uint64_t saturated = 0; //!< "server.requests.saturated"
};

/**
 * Figure 11: one workload run twice, without detection hardware
 * (baseline) and with CORD attached and its race-check and
 * memory-timestamp traffic charged to the buses.  Produced by
 * runPerf(); the one place that builds this run pair.
 */
struct PerfPoint
{
    Tick baselineTicks = 0;
    Tick cordTicks = 0;
    std::uint64_t raceCheckTraffic = 0; //!< "cord.raceChecks"
    std::uint64_t memTsTraffic = 0;     //!< "cord.memTsUpdates"
    std::uint64_t syncInstances = 0;
    std::uint64_t logEntries = 0;       //!< "cord.logEntries"
    std::uint64_t logWireBytes = 0;     //!< "cord.logWireBytes"
    CordCharges cordCharges;            //!< the CORD run's bus charges
    RequestTraffic baselineTraffic;
    RequestTraffic cordTraffic;

    double
    relative() const
    {
        return baselineTicks
                   ? static_cast<double>(cordTicks) / baselineTicks
                   : 1.0;
    }
};

PerfPoint runPerf(const std::string &workload,
                  const WorkloadParams &params,
                  const MachineConfig &machine, const CordConfig &cord);

/**
 * Overhead decomposition: where CORD's end-to-end slowdown comes from,
 * by mechanism.  Produced by runProfile().
 *
 * The measured total is exact: cordTicks - baselineTicks from two runs
 * of the same deterministic workload.  Each mechanism's attributed
 * cycles are exact too (bus cycles its traffic consumed; the log cost
 * is analytic from the wire size).  The per-mechanism overheadTicks
 * prorate the measured total over the attributed cycles, so the
 * decomposition sums to the measured total by construction -- shares
 * answer "which mechanism is responsible", not "what would removing it
 * save" (contention is not additive).
 */
struct ProfileMechanism
{
    std::string key;            //!< "check"|"timestamp"|"history"|"log"
    std::uint64_t cycles = 0;   //!< attributed bus cycles (exact)
    std::uint64_t events = 0;   //!< traffic events behind the cycles
    double share = 0.0;         //!< fraction of attributed cycles
    double overheadTicks = 0.0; //!< prorated measured overhead
};

/** Full report of one profiled workload. */
struct ProfileReport
{
    std::string workload;
    Tick baselineTicks = 0; //!< Ideal: no detection hardware at all
    Tick cordTicks = 0;     //!< CORD attached and charged to the buses
    Tick overheadTicks = 0; //!< cordTicks - baselineTicks (measured)

    /** check / timestamp / history / log, in that order. */
    std::vector<ProfileMechanism> mechanisms;

    std::uint64_t logWireBytes = 0; //!< order-log size behind "log"

    double relative() const
    {
        return baselineTicks ? static_cast<double>(cordTicks) /
                                   static_cast<double>(baselineTicks)
                             : 1.0;
    }
};

/**
 * Profile one workload: runPerf()'s run pair, with the CORD run's bus
 * charges per mechanism (Simulation::cordCharges) prorating the
 * measured overhead.  Deterministic for a fixed configuration.
 */
ProfileReport runProfile(const std::string &workload,
                         const WorkloadParams &params,
                         const MachineConfig &machine,
                         const CordConfig &cord);

/**
 * Record @p r into @p m: deterministic "profile.<workload>.*" metrics
 * (mechanism cycles/events, prorated overhead ticks, shares in parts
 * per million).  `cordstat profile` renders manifests carrying these
 * metrics.
 */
void addProfileMetrics(RunManifest &m, const ProfileReport &r);

} // namespace cord

#endif // CORD_HARNESS_EXPERIMENTS_H
