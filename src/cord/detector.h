/**
 * @file
 * Common interface of all race-detection / order-recording models.
 *
 * Detectors are passive observers of the committed access stream
 * (mem/access.h).  The CORD model can additionally be bound to a
 * CordTrafficSink, through which its race-check requests and
 * memory-timestamp broadcasts are charged to the timing model's
 * address/timestamp bus (Figure 11 experiments).
 *
 * Delivery contract (cpu/simulation.h): onAccess sees every committed
 * access in commit order, but up to one batch late, after later
 * simulation steps have run.  All accesses are delivered before each
 * onThreadEnd and before finish.  Timing-coupled detectors and runs
 * under an active EventTracer get each access as it commits.  Nothing
 * may read detector state while a simulation is running.
 *
 * In a forked campaign child (harness/trunk.h) the spec detectors sit
 * behind a SuffixGate: they get the child's suffix late -- once Ideal
 * reports a race or the gate's log fills -- or, in a run Ideal never
 * flags, never, and then get no finish() either.  The stream they do
 * get keeps the contract above.
 */

#ifndef CORD_CORD_DETECTOR_H
#define CORD_CORD_DETECTOR_H

#include <cstdint>
#include <span>
#include <string>

#include "cord/race_report.h"
#include "mem/access.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cord
{

/** Why a history entry was folded into the main-memory timestamps
 *  (i.e. what caused a memTsBroadcast).  Invalidation is ordinary
 *  timestamp maintenance driven by coherence; the other three are
 *  history-capacity effects (displacement and walker staleness),
 *  which the overhead decomposition counts separately. */
enum class FoldCause : std::uint8_t
{
    Invalidation,     //!< remote copy invalidated by a committed write
    LineDisplacement, //!< history line victimized by a fill
    EntryDisplacement,//!< per-line entry displaced by a new clock value
    WalkerEviction,   //!< stale entry swept by the cache walker
};

/** Receives CORD's extra bus traffic in timing-coupled runs. */
class CordTrafficSink
{
  public:
    virtual ~CordTrafficSink() = default;

    /**
     * A race check request (address/timestamp bus, no data).  Under
     * snooping it is a broadcast; a directory machine routes it to
     * @p addr's home slice, which forwards one point-to-point probe
     * per remote sharer.  @p sharers names exactly the cores the
     * directory would forward to, in ascending order (empty when the
     * home slice answers from its banked memory timestamps alone).
     */
    virtual void raceCheck(Tick now, Addr addr,
                           std::span<const CoreId> sharers) = 0;

    /** A main-memory timestamp update: broadcast under snooping, a
     *  directed update of @p addr's home slice bank under a directory;
     *  @p cause says which mechanism produced it (attribution). */
    virtual void memTsBroadcast(Tick now, FoldCause cause, Addr addr) = 0;
};

/** Core/thread sizing a detector was built for ({0, 0} = agnostic).
 *  harness/runner.cpp rejects runs whose machine disagrees. */
struct DetectorGeometry
{
    unsigned cores = 0;   //!< 0 = any machine
    unsigned threads = 0; //!< 0 = any thread count
};

/** Base class for all detector configurations. */
class Detector
{
  public:
    explicit Detector(std::string name) : name_(std::move(name)) {}
    virtual ~Detector() = default;

    Detector(const Detector &) = delete;
    Detector &operator=(const Detector &) = delete;

    /** Observe one committed access. */
    virtual void onAccess(const MemEvent &ev) = 0;

    /** Observe committed accesses @p evs, in order: the simulation's
     *  batch entry point, so each detector runs over a whole batch
     *  while its metadata stays host-cache hot. */
    virtual void
    onAccesses(std::span<const MemEvent> evs)
    {
        for (const MemEvent &ev : evs)
            onAccess(ev);
    }

    /** A thread finished after retiring @p totalInstrs instructions. */
    virtual void onThreadEnd(ThreadId tid, std::uint64_t totalInstrs) {}

    /** Run ended; flush any pending state. */
    virtual void finish() {}

    /** Geometry this detector was sized for; {0, 0} (the default)
     *  means it adapts to any machine.  Sized detectors must override
     *  so the runner can assert machine/detector agreement. */
    virtual DetectorGeometry geometry() const { return {}; }

    /** Data races found so far. */
    const RaceReport &races() const { return report_; }

    /** Model-specific counters. */
    const StatRegistry &stats() const { return stats_; }

    const std::string &name() const { return name_; }

  protected:
    RaceReport report_;
    StatRegistry stats_;

  private:
    std::string name_;
};

} // namespace cord

#endif // CORD_CORD_DETECTOR_H
