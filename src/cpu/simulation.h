/**
 * @file
 * The execution engine: drives thread coroutines on simulated cores,
 * times every operation through the MESI memory hierarchy, commits
 * accesses to the functional value store in a deterministic global
 * order, and publishes the committed access stream to the attached
 * detectors (CORD, vector-clock variants, Ideal) in batches.
 *
 * An optional ExecutionGate throttles instruction retirement, which is
 * how deterministic replay (cord/replay.h) enforces the recorded order.
 */

#ifndef CORD_CPU_SIMULATION_H
#define CORD_CPU_SIMULATION_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cord/detector.h"
#include "mem/machine_config.h"
#include "mem/timing_mem.h"
#include "runtime/sim_task.h"
#include "runtime/value_store.h"
#include "sched/policy.h"
#include "sched/sched_log.h"
#include "sim/event_queue.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cord
{

class CordDetector;

/**
 * The bus charges a timing-coupled CORD made, by mechanism: the
 * simulated cycles they consumed and how many there were.  This is the
 * per-mechanism split behind the Figure 11 overhead decomposition
 * (harness/experiments.h runProfile).
 */
struct CordCharges
{
    struct Mechanism
    {
        std::uint64_t cycles = 0;
        std::uint64_t charges = 0;

        void
        add(Tick c)
        {
            cycles += c;
            ++charges;
        }
    };

    Mechanism check;     //!< race checks
    Mechanism timestamp; //!< folds caused by invalidations
    Mechanism history;   //!< displacement and walker folds
};

/**
 * Controls instruction retirement (deterministic replay).
 *
 * allowance() asks how many of the next @p want instructions thread
 * @p tid may retire right now; 0 means the thread must wait and retry.
 */
class ExecutionGate
{
  public:
    virtual ~ExecutionGate() = default;

    virtual std::uint64_t allowance(ThreadId tid, std::uint64_t want) = 0;

    /** @p n instructions were retired by @p tid. */
    virtual void onRetired(ThreadId tid, std::uint64_t n) = 0;
};

/** One simulated execution of a set of thread coroutines. */
class Simulation : public CordTrafficSink
{
  public:
    /**
     * @param cfg machine topology and timing
     * @param numThreads number of software threads that will be spawned
     */
    Simulation(const MachineConfig &cfg, unsigned numThreads);
    ~Simulation() override;

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /**
     * Bind @p body as the program of thread @p tid, pinned to core
     * tid % numCores.  Must be called once per tid before run().
     */
    void spawn(ThreadId tid, Task<void> body);

    /**
     * Attach a passive detector (not owned), before run().  Detectors
     * see every committed access in commit order, but up to one batch
     * (kDetectorBatch accesses) late: the simulation buffers the
     * stream and runs each detector over the whole buffer in turn.
     * The buffer is flushed before every onThreadEnd(), before
     * finish() and before a watchdog return from run(), so a thread's
     * accesses always precede its end and finish() has seen them all.
     * A timing-coupled detector (setTimingCord) or an active
     * EventTracer makes delivery per access.  Nothing may read
     * detector state while run() is in progress.  A detector may
     * itself hold the stream back and pass it on later, as the
     * forked campaign's SuffixGate (harness/trunk.h) does for the
     * spec detectors: they then get a child's suffix late or never.
     */
    void addDetector(Detector *d);

    /**
     * Charge @p d's race checks and memory-timestamp broadcasts to
     * this machine's buses during run() (Figure 11 runs); may be
     * nullptr (no coupling).  @p d must also be attached with
     * addDetector().  Its traffic lands at the commit tick, so a
     * coupled run delivers each access to the detectors as it commits.
     */
    void setTimingCord(CordDetector *d) { timingCord_ = d; }

    /** Install a retirement gate (replay); may be nullptr. */
    void setGate(ExecutionGate *g) { gate_ = g; }

    /**
     * Attach a scheduling policy (sched/policy.h); may be nullptr
     * (default): with no policy the engine takes its original
     * round-robin path untouched.  When @p rec is non-null every policy
     * answer is appended to it, which is what `--replay-sched` replays
     * (neither pointer is owned; both must outlive run()).  Not
     * meaningful together with an ExecutionGate: gated runs take their
     * order from the gate and skip the memDelay query.
     */
    void
    setSchedulePolicy(SchedulePolicy *p, ScheduleLog *rec = nullptr)
    {
        sched_ = p;
        schedRec_ = rec;
    }

    /**
     * Run until every thread finishes or @p maxTicks elapses.
     * @return true when all threads finished (false = watchdog fired,
     *         e.g. an injected synchronization removal caused a hang)
     */
    bool run(Tick maxTicks = kMaxTick);

    /// @{ @name CordTrafficSink: charge CORD traffic to the buses
    void
    raceCheck(Tick now, Addr addr,
              std::span<const CoreId> sharers) override
    {
        cordCharges_.check.add(mem_.chargeRaceCheck(now, addr, sharers));
    }

    void
    memTsBroadcast(Tick now, FoldCause cause, Addr addr) override
    {
        CordCharges::Mechanism &m = cause == FoldCause::Invalidation
                                        ? cordCharges_.timestamp
                                        : cordCharges_.history;
        m.add(mem_.chargeMemTsBroadcast(now, addr));
    }
    /// @}

    /** The timing-coupled CORD's bus charges so far, by mechanism
     *  (all zero without setTimingCord). */
    const CordCharges &cordCharges() const { return cordCharges_; }

    /** Tick at which the last thread finished. */
    Tick finishTick() const { return finishTick_; }

    bool allFinished() const { return finishedThreads_ == threads_.size(); }

    /** Instructions retired by @p tid. */
    std::uint64_t instrCount(ThreadId tid) const;

    /**
     * Order-insensitive-free checksum of every value loaded by @p tid,
     * in program order -- two executions are observationally identical
     * for the thread iff the checksums match (replay verification).
     */
    std::uint64_t readChecksum(ThreadId tid) const;

    /** Total committed memory accesses (all threads). */
    std::uint64_t committedAccesses() const { return committed_; }

    /**
     * FNV-1a over the committed (tid, kind, word address) stream in
     * commit order: a compact fingerprint of the interleaving this run
     * took.  Two runs with equal signatures committed the same accesses
     * in the same global order; explorations count distinct signatures
     * to measure how much of the schedule space they actually sampled.
     */
    std::uint64_t interleavingSignature() const { return sig_; }

    ValueStore &memory() { return values_; }
    const ValueStore &memory() const { return values_; }
    TimingMemSystem &mem() { return mem_; }
    EventQueue &events() { return events_; }
    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads_.size());
    }

  private:
    struct Thread
    {
        ThreadId tid = 0;
        CoreId core = 0;
        ThreadDriver drv;
        std::uint64_t instrs = 0;
        std::uint64_t readChecksum = 0xcbf29ce484222325ULL; // FNV offset
        std::uint64_t computeRemaining = 0;
        std::uint64_t nextMigration = 0; //!< instr count of next move
        bool spawned = false;
        bool waiting = false; //!< an op or compute chunk is in flight
        bool blocked = false; //!< gate-blocked; retry event pending
        bool finished = false;
    };

    struct Core
    {
        std::vector<unsigned> threads; //!< indices into threads_
        unsigned rr = 0;               //!< round-robin cursor
        bool eventScheduled = false;
    };

    /** Schedule a core-issue event at the current tick. */
    void scheduleCore(CoreId c);

    /** scheduleCore at the tail of a response: when the issue step
     *  would be the next event anyway, run it in place instead. */
    void wakeCore(CoreId c);

    /** Issue work for one core: pick a ready thread and advance it. */
    void coreStep(CoreId c);

    /** coreStep with a SchedulePolicy attached: same probe budget as
     *  the default path, but each scan's runnable candidates are
     *  offered to the policy instead of always taking the first. */
    void coreStepPolicy(CoreId c);

    /** Advance one thread until it issues an op or finishes.
     *  @return true when the core slot was consumed */
    bool runThread(Thread &t);

    /** Re-pin @p t to @p newCore (scheduler-driven migration). */
    void moveThread(Thread &t, CoreId newCore);

    /** Dispatch the thread's pending memory operation. */
    void issueMemOp(Thread &t);

    /** Commit a completed memory op: values, detectors, result. */
    void commitMemOp(Thread &t, const OpRequest &op);

    void publish(Thread &t, Addr addr, AccessKind kind,
                 std::uint64_t value);

    /** Run every detector over the buffered accesses, in turn. */
    void flushDetectors();

    void finishThread(Thread &t);

    void foldChecksum(Thread &t, Addr addr, std::uint64_t value);

    /** Gate-retry delay when a thread is blocked (replay only). */
    static constexpr Tick kGateRetryTicks = 32;

    /** Accesses buffered before the detectors run over them. */
    static constexpr std::size_t kDetectorBatch = 256;

    MachineConfig cfg_;
    EventQueue events_;
    TimingMemSystem mem_;
    ValueStore values_;
    // unique_ptr: ThreadDriver is immovable and in-flight events capture
    // Thread addresses, so element addresses must be stable.
    std::vector<std::unique_ptr<Thread>> threads_;
    std::vector<Core> cores_;
    std::vector<Detector *> detectors_;
    CordDetector *timingCord_ = nullptr;
    CordCharges cordCharges_;
    std::vector<MemEvent> batch_; //!< flushAt_ slots, written in place
    std::size_t batched_ = 0;     //!< committed, not yet dispatched
    std::size_t flushAt_ = 1;     //!< batched_ count that triggers a flush
    Tick maxTicks_ = kMaxTick;    //!< run()'s watchdog limit
    ExecutionGate *gate_ = nullptr;
    SchedulePolicy *sched_ = nullptr;
    ScheduleLog *schedRec_ = nullptr;
    std::vector<std::size_t> candPos_;  //!< scratch: candidate slots
    std::vector<ThreadId> candTids_;    //!< scratch: candidate tids
    std::size_t finishedThreads_ = 0;
    Tick finishTick_ = 0;
    std::uint64_t committed_ = 0;
    std::uint64_t sig_ = 0xcbf29ce484222325ULL; // FNV offset basis
};

} // namespace cord

#endif // CORD_CPU_SIMULATION_H
