/**
 * @file
 * Synchronization library for simulated threads (paper Section 2.7.3).
 *
 * Mutexes, flags (condition-style waits) and barriers are implemented
 * on top of labelled synchronization loads/stores/CAS through the
 * simulated memory system -- exactly the accesses CORD observes in
 * hardware.  Barriers are built from a mutex-protected counter plus a
 * generation flag, matching the paper's injection model (Section 3.4):
 * only a barrier's *internal* mutex and flag primitives are removable,
 * never the barrier as a whole.
 *
 * Dynamic synchronization instances (one lock/unlock pair; one flag
 * wait) are numbered *per thread* at call time, so an injected removal
 * identifies the same dynamic instance regardless of interleaving --
 * this keeps injected runs deterministically replayable.  A
 * SyncInstanceFilter orders a specific (thread, sequence) instance to
 * be skipped, which is how the fault injector removes synchronization.
 */

#ifndef CORD_RUNTIME_SYNC_H
#define CORD_RUNTIME_SYNC_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "runtime/address_space.h"
#include "runtime/sim_task.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace cord
{

/** Kinds of removable dynamic synchronization instances. */
enum class SyncInstanceKind : std::uint8_t
{
    LockPair,    //!< one lock() call and its matching unlock()
    FlagWait,    //!< one flag wait
    RwReadPair,  //!< one read-side rwlock acquire/release pair
    RwWritePair, //!< one write-side rwlock acquire/release pair
};

/** Decides whether a dynamic sync instance is removed (injected). */
class SyncInstanceFilter
{
  public:
    virtual ~SyncInstanceFilter() = default;

    /**
     * @param tid issuing thread
     * @param seqInThread 0-based index of this instance within the
     *        thread's own dynamic sequence of removable instances
     * @param kind instance kind
     * @return true to skip (remove) this instance
     */
    virtual bool skipInstance(ThreadId tid, std::uint64_t seqInThread,
                              SyncInstanceKind kind) = 0;
};

/** Per-thread context handed to every primitive. */
struct ThreadCtx
{
    ThreadId tid = 0;
    Rng rng{0};

    /** Lock variables whose acquire was removed by injection; the
     *  matching unlock is removed with it. */
    std::set<Addr> skippedLocks;
};

/** A barrier's variables: internal mutex, counter, generation, flag. */
struct BarrierVars
{
    Addr mutex = 0;   //!< sync variable protecting the counter
    Addr counter = 0; //!< data word: arrived-thread count
    Addr genData = 0; //!< data word: current generation
    Addr flag = 0;    //!< sync variable: released generation
    unsigned nThreads = 0;
};

/**
 * The synchronization runtime: primitive factories plus instance
 * accounting.  One instance per simulation run, shared by all threads.
 */
class SyncRuntime
{
  public:
    static constexpr std::uint64_t kLockFree = 0;

    /** Ticks a spinner waits before its next probe (the base delay,
     *  before any jitter). */
    static constexpr std::uint32_t kSpinBackoff = 40;

    explicit SyncRuntime(SyncInstanceFilter *filter = nullptr,
                         bool jitterSpin = false)
        : filter_(filter), jitterSpin_(jitterSpin)
    {
    }

    /**
     * Spin-retry delay for one failed probe.  With @p jitterSpin the
     * delay is drawn from the thread's own seeded stream: the simulator
     * is deterministic, so spinners retrying with one fixed cadence can
     * phase-lock against a peer's fixed-length lock/unlock cycle and
     * starve forever; the jitter keeps relative phases drifting.  Off
     * by default so the classic workloads' executions are unchanged.
     */
    std::uint32_t
    spinDelay(ThreadCtx &t)
    {
        if (!jitterSpin_)
            return kSpinBackoff;
        return kSpinBackoff +
               static_cast<std::uint32_t>(t.rng.below(kSpinBackoff));
    }

    /** Allocate a barrier's variables from @p as. */
    static BarrierVars
    makeBarrier(AddressSpace &as, unsigned nThreads,
                std::string name = "barrier")
    {
        BarrierVars b;
        b.mutex = as.allocSync(name + ".mutex");
        b.flag = as.allocSync(name + ".flag");
        const Addr data = as.allocSharedLineAligned(2, name + ".state");
        b.counter = data;
        b.genData = data + kWordBytes;
        b.nThreads = nThreads;
        return b;
    }

    /**
     * Acquire @p lockVar with a test-and-test-and-set loop.  Counts as
     * one removable LockPair instance; when removed, the thread enters
     * the critical section immediately and its matching unlock is
     * skipped too.
     */
    Task<void>
    lock(ThreadCtx &t, Addr lockVar)
    {
        const std::uint64_t seq = nextSeq(t.tid);
        ++lockInstances_;
        if (filter_ &&
            filter_->skipInstance(t.tid, seq, SyncInstanceKind::LockPair)) {
            t.skippedLocks.insert(lockVar);
            ++removedInstances_;
            co_return;
        }
        for (;;) {
            const OpResult probe = co_await opSyncLoad(lockVar);
            if (probe.value == kLockFree) {
                const OpResult cas = co_await opCas(
                    lockVar, kLockFree,
                    1 + static_cast<std::uint64_t>(t.tid));
                if (cas.success)
                    co_return;
            }
            co_await opCompute(spinDelay(t));
        }
    }

    /** Release @p lockVar (skipped when its acquire was removed). */
    Task<void>
    unlock(ThreadCtx &t, Addr lockVar)
    {
        if (t.skippedLocks.erase(lockVar) > 0)
            co_return;
        co_await opSyncStore(lockVar, kLockFree);
    }

    /**
     * Wait until the flag at @p flagVar reaches @p target (flags are
     * monotonically increasing generations).  One removable FlagWait
     * instance; when removed, the thread proceeds immediately.
     */
    Task<void>
    flagWait(ThreadCtx &t, Addr flagVar, std::uint64_t target)
    {
        const std::uint64_t seq = nextSeq(t.tid);
        ++flagInstances_;
        if (filter_ &&
            filter_->skipInstance(t.tid, seq, SyncInstanceKind::FlagWait)) {
            ++removedInstances_;
            co_return;
        }
        for (;;) {
            const OpResult probe = co_await opSyncLoad(flagVar);
            if (probe.value >= target)
                co_return;
            co_await opCompute(spinDelay(t));
        }
    }

    /** Set the flag at @p flagVar to @p value (not removable). */
    Task<void>
    flagSet(ThreadCtx &t, Addr flagVar, std::uint64_t value)
    {
        co_await opSyncStore(flagVar, value);
    }

    /// @{ @name Reader-writer lock (server workload tier)
    ///
    /// One sync word encodes the whole lock: the low bits hold the
    /// active-reader count, kRwWriter marks a writer holding it
    /// exclusively (plus 1+tid for debugging, like lock()).  Readers
    /// CAS the count up/down; writers CAS 0 -> writer-marker.  Every
    /// acquire spins test-and-test-and-set style through labelled sync
    /// accesses, so CORD records the same release->acquire edges
    /// hardware would observe: each reader's release CAS orders before
    /// the next writer's acquire CAS through the lock word, and the
    /// writer's release store orders before every later reader.

    /** Writer-held marker, disjoint from any feasible reader count. */
    static constexpr std::uint64_t kRwWriter = 1ULL << 48;

    /**
     * Acquire @p lockVar for shared (read) access.  One removable
     * RwReadPair instance; when removed, the thread enters immediately
     * and its matching rwReadUnlock is skipped too.
     */
    Task<void>
    rwReadLock(ThreadCtx &t, Addr lockVar)
    {
        const std::uint64_t seq = nextSeq(t.tid);
        ++rwReadInstances_;
        if (filter_ && filter_->skipInstance(t.tid, seq,
                                             SyncInstanceKind::RwReadPair)) {
            t.skippedLocks.insert(lockVar);
            ++removedInstances_;
            co_return;
        }
        for (;;) {
            const OpResult probe = co_await opSyncLoad(lockVar);
            if ((probe.value & kRwWriter) == 0) {
                const OpResult cas =
                    co_await opCas(lockVar, probe.value, probe.value + 1);
                if (cas.success)
                    co_return;
            }
            co_await opCompute(spinDelay(t));
        }
    }

    /** Release shared access (skipped when its acquire was removed). */
    Task<void>
    rwReadUnlock(ThreadCtx &t, Addr lockVar)
    {
        if (t.skippedLocks.erase(lockVar) > 0)
            co_return;
        for (;;) {
            const OpResult probe = co_await opSyncLoad(lockVar);
            const OpResult cas =
                co_await opCas(lockVar, probe.value, probe.value - 1);
            if (cas.success)
                co_return;
            co_await opCompute(spinDelay(t));
        }
    }

    /**
     * Acquire @p lockVar exclusively (write).  One removable
     * RwWritePair instance; when removed, the thread writes with no
     * exclusion and its matching rwWriteUnlock is skipped too.
     */
    Task<void>
    rwWriteLock(ThreadCtx &t, Addr lockVar)
    {
        const std::uint64_t seq = nextSeq(t.tid);
        ++rwWriteInstances_;
        if (filter_ && filter_->skipInstance(t.tid, seq,
                                             SyncInstanceKind::RwWritePair)) {
            t.skippedLocks.insert(lockVar);
            ++removedInstances_;
            co_return;
        }
        for (;;) {
            const OpResult probe = co_await opSyncLoad(lockVar);
            if (probe.value == 0) {
                const OpResult cas = co_await opCas(
                    lockVar, 0,
                    kRwWriter + 1 + static_cast<std::uint64_t>(t.tid));
                if (cas.success)
                    co_return;
            }
            co_await opCompute(spinDelay(t));
        }
    }

    /** Release exclusive access (skipped when acquire was removed). */
    Task<void>
    rwWriteUnlock(ThreadCtx &t, Addr lockVar)
    {
        if (t.skippedLocks.erase(lockVar) > 0)
            co_return;
        co_await opSyncStore(lockVar, 0);
    }
    /// @}

    /**
     * Sense-reversing barrier built from the mutex and flag primitives
     * (paper Section 3.4).  The internal lock/unlock pair and flag wait
     * are individually removable by injection.
     */
    Task<void>
    barrier(ThreadCtx &t, const BarrierVars &b)
    {
        co_await lock(t, b.mutex);
        const std::uint64_t count = (co_await opLoad(b.counter)).value + 1;
        const std::uint64_t gen = (co_await opLoad(b.genData)).value;
        const bool last = count >= b.nThreads;
        co_await opStore(b.counter, last ? 0 : count);
        if (last)
            co_await opStore(b.genData, gen + 1);
        co_await unlock(t, b.mutex);
        if (last)
            co_await flagSet(t, b.flag, gen + 1);
        else
            co_await flagWait(t, b.flag, gen + 1);
    }

    /// @{ @name Dynamic instance accounting (injection census)

    /** Removable instances issued by thread @p tid so far. */
    std::uint64_t
    instancesIssued(ThreadId tid) const
    {
        return tid < perThread_.size() ? perThread_[tid] : 0;
    }

    /** Removable instances issued by all threads. */
    std::uint64_t
    totalInstances() const
    {
        std::uint64_t sum = 0;
        for (auto c : perThread_)
            sum += c;
        return sum;
    }

    /** Per-thread instance counts (census for uniform injection). */
    const std::vector<std::uint64_t> &perThreadInstances() const
    {
        return perThread_;
    }

    std::uint64_t lockInstances() const { return lockInstances_; }
    std::uint64_t flagInstances() const { return flagInstances_; }
    std::uint64_t rwReadInstances() const { return rwReadInstances_; }
    std::uint64_t rwWriteInstances() const { return rwWriteInstances_; }
    std::uint64_t removedInstances() const { return removedInstances_; }
    /// @}

  private:
    std::uint64_t
    nextSeq(ThreadId tid)
    {
        if (tid >= perThread_.size())
            perThread_.resize(tid + 1, 0);
        return perThread_[tid]++;
    }

    SyncInstanceFilter *filter_;
    bool jitterSpin_ = false;
    std::vector<std::uint64_t> perThread_;
    std::uint64_t lockInstances_ = 0;
    std::uint64_t flagInstances_ = 0;
    std::uint64_t rwReadInstances_ = 0;
    std::uint64_t rwWriteInstances_ = 0;
    std::uint64_t removedInstances_ = 0;
};

} // namespace cord

#endif // CORD_RUNTIME_SYNC_H
