#include "harness/runner.h"

#include <memory>

#include "obs/tracer.h"
#include "runtime/address_space.h"
#include "sim/logging.h"

namespace cord
{

RunOutcome
runWorkload(const RunSetup &setup)
{
    auto workload = makeWorkload(setup.workload);

    AddressSpace as;
    workload->setup(setup.params, as);
    if (setup.captureSpace)
        *setup.captureSpace = as;

    // Server-family workloads run open-ended polling loops that can
    // phase-lock against a fixed spin cadence in a deterministic
    // simulator (a spinner forever probing while a peer's fixed-length
    // cycle holds the lock); they opt into jittered spin retries.
    const bool jitterSpin = workload->meta().family == "server";
    SyncRuntime rt(setup.filter, jitterSpin);

    // Thread contexts must outlive the simulation (coroutine frames
    // reference them).
    std::vector<std::unique_ptr<ThreadCtx>> ctxs;
    for (unsigned t = 0; t < setup.params.numThreads; ++t) {
        auto ctx = std::make_unique<ThreadCtx>();
        ctx->tid = static_cast<ThreadId>(t);
        ctx->rng.reseed(setup.params.seed * 1000003 + t);
        ctxs.push_back(std::move(ctx));
    }

    Simulation sim(setup.machine, setup.params.numThreads);
    for (Detector *d : setup.detectors) {
        // Geometry agreement: a detector sized for the wrong machine
        // used to silently under-size its per-core/per-thread state
        // (e.g. vector clocks) and then trip bounds asserts -- or
        // worse, mis-detect.  Reject the mismatch at setup instead.
        const DetectorGeometry g = d->geometry();
        cord_assert(g.cores == 0 || g.cores == setup.machine.numCores,
                    "detector '", d->name(), "' is sized for ", g.cores,
                    " cores but the machine has ",
                    setup.machine.numCores);
        cord_assert(g.threads == 0 ||
                        g.threads == setup.params.numThreads,
                    "detector '", d->name(), "' is sized for ",
                    g.threads, " threads but the run spawns ",
                    setup.params.numThreads);
        sim.addDetector(d);
    }
    sim.setTimingCord(setup.timingCord);
    if (setup.gate)
        sim.setGate(setup.gate);
    if (setup.sched)
        sim.setSchedulePolicy(setup.sched, setup.recordSched);

    for (unsigned t = 0; t < setup.params.numThreads; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  workload->body(rt, *ctxs[t]));

    RunOutcome out;
    out.completed =
        sim.run(setup.maxTicks == 0 ? kMaxTick : setup.maxTicks);
    out.ticks = sim.events().now();
    out.accesses = sim.committedAccesses();
    out.events = sim.events().executedEvents();
    out.syncCensus = rt.perThreadInstances();
    out.syncCensus.resize(setup.params.numThreads, 0);
    out.lockInstances = rt.lockInstances();
    out.flagInstances = rt.flagInstances();
    out.rwReadInstances = rt.rwReadInstances();
    out.rwWriteInstances = rt.rwWriteInstances();
    out.removedInstances = rt.removedInstances();
    out.footprintWords = sim.memory().footprintWords();
    out.interleavingSignature = sim.interleavingSignature();
    out.cordCharges = sim.cordCharges();
    for (unsigned t = 0; t < setup.params.numThreads; ++t) {
        out.instrs.push_back(sim.instrCount(static_cast<ThreadId>(t)));
        out.readChecksums.push_back(
            sim.readChecksum(static_cast<ThreadId>(t)));
    }

    out.stats.set("sim.ticks", out.ticks);
    out.stats.set("sim.committedAccesses", out.accesses);
    out.stats.set("sim.eventsExecuted", out.events);
    out.stats.set("sim.footprintWords", out.footprintWords);
    out.stats.set("sim.syncInstances.lock", out.lockInstances);
    out.stats.set("sim.syncInstances.flag", out.flagInstances);
    if (out.rwReadInstances > 0)
        out.stats.set("sim.syncInstances.rwRead", out.rwReadInstances);
    if (out.rwWriteInstances > 0)
        out.stats.set("sim.syncInstances.rwWrite", out.rwWriteInstances);
    std::uint64_t totalInstrs = 0;
    for (auto n : out.instrs)
        totalInstrs += n;
    out.stats.set("sim.instrsRetired", totalInstrs);
    StatRegistry memStats;
    sim.mem().exportStats(memStats);
    out.stats.merge("mem", memStats);

    // Application-level stats (server family: per-request latency
    // histograms and drop/saturation counters).  The SPLASH analogs
    // export nothing, so their manifests are unchanged.
    workload->exportStats(out.stats);

    // Observability self-accounting: a run executed under an active
    // tracer records what the tracer itself saw (ring-buffer drops
    // must be visible, not silent -- cordstat show warns on
    // obs.tracer.dropped).  Untraced runs add nothing, keeping golden
    // manifests unchanged.
    if (const EventTracer *tr = EventTracer::active()) {
        out.stats.set("obs.tracer.total", tr->total());
        out.stats.set("obs.tracer.dropped", tr->dropped());
    }
    return out;
}

} // namespace cord
