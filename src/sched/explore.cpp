#include "sched/explore.h"

#include <memory>
#include <set>
#include <utility>

#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "harness/exec.h"
#include "sim/logging.h"

namespace cord
{

namespace
{

/** Stamp replay metadata on a freshly recorded log. */
void
stampLog(ScheduleLog &log, const ExploreSpec &spec, unsigned schedIdx,
         std::uint64_t signature)
{
    const SchedKind kind =
        (schedIdx == 0 || spec.sched.kind == SchedKind::Baseline)
            ? SchedKind::Baseline
            : spec.sched.kind;
    log.policyKind = static_cast<std::uint64_t>(kind);
    log.seed = kind == SchedKind::Baseline
                   ? 0
                   : scheduleSeed(spec.seed, 0, schedIdx);
    log.numThreads = spec.params.numThreads;
    log.signature = signature;
}

} // namespace

ScheduleRun
runOneSchedule(const ExploreSpec &spec, unsigned index,
               SchedulePolicy &policy, ScheduleLog *rec)
{
    RemoveOneInstance filter(spec.pick);
    IdealDetector ideal(spec.params.numThreads);
    TraceRecorder recorder;
    CordConfig cc =
        CordConfig::forMachine(spec.machine, spec.params.numThreads);
    cc.d = spec.cordD;
    CordDetector cord(cc);

    RunSetup setup;
    setup.workload = spec.workload;
    setup.params = spec.params;
    setup.machine = spec.machine;
    if (spec.haveInjection)
        setup.filter = &filter;
    setup.maxTicks = spec.maxTicks;
    setup.detectors.push_back(&ideal);
    setup.detectors.push_back(&cord);
    if (spec.recordTrace)
        setup.detectors.push_back(&recorder);
    setup.sched = &policy;
    setup.recordSched = rec;

    const RunOutcome out = runWorkload(setup);

    ScheduleRun r;
    r.index = index;
    r.completed = out.completed;
    r.ticks = out.ticks;
    r.signature = out.interleavingSignature;
    r.idealRacePairs = ideal.races().pairs();
    r.cordRacePairs = cord.races().pairs();
    r.idealRacyWords.assign(ideal.races().words().begin(),
                            ideal.races().words().end());
    r.readChecksums = out.readChecksums;
    if (spec.recordTrace) {
        auto trace = std::make_shared<DecodedTrace>();
        trace->events = recorder.events();
        trace->threadEnds = recorder.threadEnds();
        r.trace = std::move(trace);
    }
    return r;
}

ExploreResult
exploreSchedules(const ExploreSpec &spec)
{
    cord_assert(spec.schedules >= 1,
                "an exploration needs at least one schedule");
    ExploreResult res;
    res.runs.resize(spec.schedules);

    // Baseline schedule first (sequentially): it anchors the sample and
    // calibrates the watchdog the perturbed schedules run under.
    {
        BaselinePolicy base;
        ScheduleLog rec;
        ScheduleRun r = runOneSchedule(spec, 0, base, &rec);
        stampLog(rec, spec, 0, r.signature);
        r.log = std::move(rec);
        res.runs[0] = std::move(r);
    }

    ExploreSpec rest = spec;
    if (rest.maxTicks == 0 && res.runs[0].completed)
        rest.maxTicks = res.runs[0].ticks * 50 + 1000000;
    rest.recordTrace = false; // only the baseline trace is retained

    auto runOne = [&](std::size_t j) {
        const unsigned s = static_cast<unsigned>(j) + 1;
        auto policy = makeSchedulePolicy(spec.sched, spec.seed, 0, s);
        ScheduleLog rec;
        ScheduleRun r = runOneSchedule(rest, s, *policy, &rec);
        stampLog(rec, spec, s, r.signature);
        r.log = std::move(rec);
        return r;
    };
    auto mergeOne = [&](std::size_t j, ScheduleRun &&r) {
        res.runs[j + 1] = std::move(r);
    };
    parallelForOrdered(spec.schedules - 1, spec.jobs, runOne, mergeOne);

    std::set<std::uint64_t> sigs;
    unsigned cum = 0;
    for (const ScheduleRun &r : res.runs) {
        if (r.completed) {
            ++res.completedRuns;
            sigs.insert(r.signature);
            if (r.idealRacePairs > 0)
                ++cum;
        } else {
            ++res.timeouts;
        }
        res.racingCum.push_back(cum);
    }
    res.racingSchedules = cum;
    res.distinctSignatures = static_cast<unsigned>(sigs.size());
    return res;
}

} // namespace cord
