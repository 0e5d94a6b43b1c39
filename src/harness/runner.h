/**
 * @file
 * Single-run harness: wires a workload, the synchronization runtime,
 * the timing simulation and a set of detectors together, runs to
 * completion, and collects the outcome.
 */

#ifndef CORD_HARNESS_RUNNER_H
#define CORD_HARNESS_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "cord/cord_detector.h"
#include "cord/detector.h"
#include "cpu/simulation.h"
#include "mem/machine_config.h"
#include "runtime/address_space.h"
#include "runtime/sync.h"
#include "workloads/workload.h"

namespace cord
{

/** Everything one simulated run needs. */
struct RunSetup
{
    std::string workload = "barnes";
    WorkloadParams params;
    MachineConfig machine;

    /** Injection filter (nullptr = clean run). */
    SyncInstanceFilter *filter = nullptr;

    /** Passive detectors observing the committed access stream. */
    std::vector<Detector *> detectors;

    /** CORD instance whose race-check / memory-timestamp traffic is
     *  charged to the machine's buses (Figure 11 runs); must also be
     *  present in `detectors`. */
    CordDetector *timingCord = nullptr;

    /** Replay gate (nullptr = free-running). */
    ExecutionGate *gate = nullptr;

    /** Scheduling policy (nullptr = the engine's default order; see
     *  sched/policy.h).  Not meaningful together with `gate`. */
    SchedulePolicy *sched = nullptr;

    /** When set, records every policy decision for exact replay. */
    ScheduleLog *recordSched = nullptr;

    /** Watchdog: abort after this many ticks (0 = unlimited).  Needed
     *  because some injected removals deadlock the application. */
    Tick maxTicks = 0;

    /** When set, receives a copy of the workload's address space
     *  (region annotations for race attribution). */
    AddressSpace *captureSpace = nullptr;
};

/** What one run produced. */
struct RunOutcome
{
    bool completed = false; //!< false = watchdog fired (hang)
    Tick ticks = 0;
    std::uint64_t accesses = 0;
    std::uint64_t events = 0; //!< kernel events executed (host work)

    /** Removable sync instances per thread (injection census). */
    std::vector<std::uint64_t> syncCensus;
    std::uint64_t lockInstances = 0;
    std::uint64_t flagInstances = 0;
    std::uint64_t rwReadInstances = 0;
    std::uint64_t rwWriteInstances = 0;
    std::uint64_t removedInstances = 0;

    std::vector<std::uint64_t> instrs;
    std::vector<std::uint64_t> readChecksums;
    std::size_t footprintWords = 0;

    /** Fingerprint of the interleaving this run took (see
     *  Simulation::interleavingSignature).  Deliberately not exported
     *  into `stats`, so manifests of runs that ignore it are unchanged;
     *  explorations add it to their own manifests explicitly. */
    std::uint64_t interleavingSignature = 0;

    /** RunSetup::timingCord's bus charges by mechanism (all zero
     *  without one).  Not exported into `stats` either: only the
     *  overhead decomposition reads it. */
    CordCharges cordCharges;

    /** Machine-level metrics ("sim.*", "mem.*") snapshotted at run end;
     *  detector metrics stay with the detector objects.  Feed into a
     *  MetricHub (obs/metrics.h) for manifests. */
    StatRegistry stats;

    std::uint64_t
    totalInstances() const
    {
        std::uint64_t s = 0;
        for (auto c : syncCensus)
            s += c;
        return s;
    }
};

/** Execute one run. */
RunOutcome runWorkload(const RunSetup &setup);

} // namespace cord

#endif // CORD_HARNESS_RUNNER_H
