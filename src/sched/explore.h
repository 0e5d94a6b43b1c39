/**
 * @file
 * Schedule exploration: run one (workload, machine, optional injection)
 * configuration under N different schedules and aggregate what the
 * sample saw -- distinct interleavings, schedules in which a race
 * manifested, and a recorded ScheduleLog per run so any schedule can be
 * replayed exactly (`cordsim --replay-sched`).
 *
 * Schedule 0 is always the baseline (unperturbed) schedule: it anchors
 * the sample -- exploring with 1 schedule is exactly today's single run
 * -- and calibrates the watchdog the perturbed schedules run under.
 */

#ifndef CORD_SCHED_EXPLORE_H
#define CORD_SCHED_EXPLORE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/trace.h"
#include "inject/injector.h"
#include "sched/factory.h"
#include "sched/sched_log.h"

namespace cord
{

/** One exploration: a run configuration plus the schedule sample. */
struct ExploreSpec
{
    std::string workload = "barnes";
    WorkloadParams params;
    MachineConfig machine;

    SchedOptions sched;          //!< policy for schedules >= 1
    unsigned schedules = 4;      //!< sample size (schedule 0 = baseline)
    std::uint64_t seed = 0xC02D; //!< base of scheduleSeed (factory.h)
    unsigned jobs = 1;           //!< workers (harness/exec.h semantics)

    /** Optional single-removal injection applied to every schedule. */
    bool haveInjection = false;
    InjectionPick pick;

    /** Watchdog for every run (0 = derive from the baseline schedule:
     *  50x its ticks.  PCT can starve a lock holder behind a spinning
     *  higher-priority thread on the same core, so perturbed runs need
     *  a bound even without an injected deadlock). */
    Tick maxTicks = 0;

    /** Margin D of the CORD detector attached to every run. */
    std::uint32_t cordD = 16;

    /** Record the access trace of the baseline run into
     *  `runs[0].trace` (runOneSchedule honors it for any run; the
     *  exploration drops it for perturbed schedules, which would
     *  otherwise hold every interleaving in memory at once).  The
     *  cross-validation tier predicts races from this one trace. */
    bool recordTrace = false;
};

/** What one explored schedule produced. */
struct ScheduleRun
{
    unsigned index = 0;    //!< schedule index within the exploration
    bool completed = false;
    Tick ticks = 0;
    std::uint64_t signature = 0; //!< interleaving signature of the run
    std::uint64_t idealRacePairs = 0;
    std::uint64_t cordRacePairs = 0;

    /** Distinct words the Ideal detector saw race (complete set). */
    std::vector<Addr> idealRacyWords;

    std::vector<std::uint64_t> readChecksums;
    ScheduleLog log; //!< recorded decisions, metadata stamped

    /** Access trace of the run; only set under spec.recordTrace. */
    std::shared_ptr<DecodedTrace> trace;
};

/** Aggregated exploration outcome. */
struct ExploreResult
{
    std::vector<ScheduleRun> runs; //!< schedule-index order
    unsigned completedRuns = 0;
    unsigned timeouts = 0;
    unsigned distinctSignatures = 0; //!< among completed runs

    /** Completed schedules in which Ideal saw >= 1 race. */
    unsigned racingSchedules = 0;

    /** racingCum[k]: racing schedules among indices 0..k -- the
     *  manifestation-vs-schedule-count curve, cumulative and therefore
     *  monotonically non-decreasing by construction. */
    std::vector<unsigned> racingCum;
};

/** Run the full exploration (deterministic for fixed spec, any jobs). */
ExploreResult exploreSchedules(const ExploreSpec &spec);

/**
 * One run of @p spec's configuration under an explicit @p policy,
 * recording decisions into @p rec when non-null (spec.maxTicks is used
 * as-is; spec.schedules/sched/seed/jobs are ignored).  This is the
 * replay entry point: drive it with a SchedReplayPolicy to re-execute
 * a recorded schedule.  The returned run's `log` metadata is NOT
 * stamped -- the caller knows the policy identity.
 */
ScheduleRun runOneSchedule(const ExploreSpec &spec, unsigned index,
                           SchedulePolicy &policy,
                           ScheduleLog *rec = nullptr);

} // namespace cord

#endif // CORD_SCHED_EXPLORE_H
