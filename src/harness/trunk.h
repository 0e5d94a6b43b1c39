/**
 * @file
 * The forked fan-out of an injection campaign (docs/INTERNALS.md §5).
 *
 * A schedule-0 injection run is deterministic, so up to its removed
 * sync instance it is exactly the fault-free run, detector state
 * included.  runTrunk() therefore simulates the fault-free run once --
 * the trunk -- with the campaign's detector set and the injection
 * runs' watchdog, and fork()s at every picked instance.  The child
 * removes the instance, runs to completion or the watchdog, writes a
 * fixed-size RunRecord to a pipe and calls _exit; the parent keeps the
 * instance and continues.  C++20 coroutine frames cannot be copied, so
 * the process image is the snapshot.
 *
 * A child computes only what the merge reads.  The merge reads the
 * spec detectors' tallies only of runs Ideal flags, so the child parks
 * the trunk's SuffixGate: the spec detectors get the suffix only once
 * the child's Ideal reports a race (or the gate's log fills), and a
 * run that ends unflagged never feeds them at all.
 *
 * Child contract: a child never returns into the caller.  Everything
 * it does after the fork ends in _exit -- status 0 after writing its
 * full record, non-zero after an exception -- and it writes nothing
 * but that record (stdio buffers are flushed before every fork, and
 * _exit never flushes them again).
 *
 * Parent contract: at most `jobs` simulating processes at a time, the
 * trunk included.  A child holds its job slot until its record has
 * arrived (at jobs 1 the trunk waits for each record before it
 * continues); the trunk then goes on at once, without waiting for the
 * child to exit.  The parent waits only on its own children: it polls
 * the pipes of those that still owe a record and reaps exited ones by
 * pid with WNOHANG at each fork and each poll.  Before result(),
 * reapAll() waits for every record and every child, and every exit
 * status, signal and record length is checked: a child that crashes,
 * exits non-zero or sends a short record fails the whole campaign with
 * a std::runtime_error that names the injection, even if its record
 * arrived; no record of such a campaign is returned.  A campaign that
 * throws kills and reaps every child it forked.
 */

#ifndef CORD_HARNESS_TRUNK_H
#define CORD_HARNESS_TRUNK_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "harness/experiments.h"
#include "inject/injector.h"

namespace cord
{

/** One detector's verdict on one run. */
struct RaceTally
{
    std::uint64_t pairs = 0;
    bool problem = false;
};

/** What the campaign merge consumes from one injection run, whichever
 *  fan-out simulated it. */
struct RunRecord
{
    bool completed = false; //!< false = the watchdog fired
    Tick ticks = 0;
    std::uint64_t signature = 0; //!< RunOutcome::interleavingSignature
    RaceTally ideal;
    /** Parallel to the spec list.  The spec detectors' tallies only
     *  when ideal.problem; all zero otherwise, on both fan-outs (a
     *  forked child's parked SuffixGate never fed them its suffix). */
    std::vector<RaceTally> dets;
    double wallSec = 0.0;        //!< host seconds (heartbeat only)
};

/** The record of a run that just ended; zeroes dets unless @p ideal
 *  reported a race. */
RunRecord makeRunRecord(const RunOutcome &out, const Detector &ideal,
                        const std::vector<std::unique_ptr<Detector>> &dets,
                        double wallSec);

/**
 * The spec detectors of a forked campaign, behind one Detector that
 * the trunk attaches after Ideal.  In the trunk it forwards every call
 * unchanged.  A child parks it at the fork: it then logs the delivered
 * accesses and thread ends, and releases -- replays the log to each
 * inner detector in turn, then forwards again -- as soon as the
 * trigger (the run's Ideal) has reported a race, or before the log
 * would grow past kLogBound accesses.  A run that ends parked never
 * feeds the inner detectors its suffix, nor their finish().
 *
 * Detectors are pure observers of one committed stream, so a released
 * gate leaves the inner detectors exactly as direct delivery would.
 * The trigger is read at every call, so it must see each batch before
 * the gate does (attach it first).
 */
class SuffixGate final : public Detector
{
  public:
    /** Accesses the log holds at most: 2.5 MiB of MemEvent, more than
     *  any clean benchmark run commits, so only hung runs fill it. */
    static constexpr std::size_t kLogBound = std::size_t{1} << 16;

    /** Neither @p trigger nor @p inner is owned. */
    SuffixGate(const Detector &trigger, std::vector<Detector *> inner);

    void onAccess(const MemEvent &ev) override { onAccesses({&ev, 1}); }
    void onAccesses(std::span<const MemEvent> evs) override;
    void onThreadEnd(ThreadId tid, std::uint64_t totalInstrs) override;
    void finish() override;

    /** Hold every later call back until the trigger fires. */
    void park();

    bool parked() const { return parked_; }

  private:
    /** Release if the trigger fired or @p more accesses would overfill
     *  the log.  @return true while still parked */
    bool holds(std::size_t more);

    void release();

    struct ThreadEnd
    {
        std::size_t at; //!< accesses logged before it
        ThreadId tid;
        std::uint64_t instrs;
    };

    const Detector &trigger_;
    std::vector<Detector *> inner_;
    bool parked_ = false;
    std::vector<MemEvent> log_;
    std::vector<ThreadEnd> ends_;
};

/** Everything runTrunk() returns to the campaign. */
struct TrunkResult
{
    std::vector<RunRecord> runs; //!< one per pick, in pick order
    std::uint64_t cleanIdealRaces = 0; //!< the trunk's own Ideal
    double trunkSeconds = 0.0; //!< trunk run, blocked waits excluded
    unsigned forks = 0;        //!< children forked (distinct picks)
    double childPeakRssMb = 0.0; //!< max ru_maxrss over the children
};

/**
 * Simulate @p base (a clean run; filter and detectors are set here)
 * once as the trunk, forking one child per distinct pick in @p picks.
 * Injections that picked the same instance share one child and its
 * record.  When @p flight is set, run_started is written as a child is
 * forked and run_finished as its record arrives, once per injection.
 *
 * Requires a single-threaded caller: asserts that no harness
 * ThreadPool is alive.
 */
TrunkResult runTrunk(const RunSetup &base,
                     const std::vector<DetectorSpec> &specs,
                     const std::vector<InjectionPick> &picks,
                     unsigned jobs, FlightRecorder *flight);

} // namespace cord

#endif // CORD_HARNESS_TRUNK_H
