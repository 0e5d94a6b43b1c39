/**
 * @file
 * Integration-level tests of the synchronization library
 * (runtime/sync.h) running on the real simulator: mutual exclusion,
 * flags, barriers, instance accounting and injected removal semantics
 * (paper Section 3.4).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cpu/simulation.h"
#include "runtime/address_space.h"
#include "runtime/sync.h"

namespace cord
{
namespace
{

struct Fixture
{
    AddressSpace as;
    MachineConfig machine;
    SyncRuntime rt;
    std::vector<std::unique_ptr<ThreadCtx>> ctxs;

    explicit Fixture(SyncInstanceFilter *filter = nullptr) : rt(filter)
    {
        for (unsigned t = 0; t < 4; ++t) {
            ctxs.push_back(std::make_unique<ThreadCtx>());
            ctxs.back()->tid = static_cast<ThreadId>(t);
            ctxs.back()->rng.reseed(100 + t);
        }
    }
};

Task<void>
criticalIncrements(SyncRuntime &rt, ThreadCtx &ctx, Addr lock,
                   Addr counter, Addr inCs, unsigned iters,
                   std::uint64_t &maxSeen)
{
    for (unsigned i = 0; i < iters; ++i) {
        co_await rt.lock(ctx, lock);
        // Track how many threads are inside the critical section.
        const std::uint64_t inside = (co_await opLoad(inCs)).value + 1;
        co_await opStore(inCs, inside);
        if (inside > maxSeen)
            maxSeen = inside;
        const std::uint64_t v = (co_await opLoad(counter)).value;
        co_await opCompute(20);
        co_await opStore(counter, v + 1);
        co_await opStore(inCs, inside - 1);
        co_await rt.unlock(ctx, lock);
        co_await opCompute(10);
    }
}

TEST(SyncRuntime, MutexProvidesMutualExclusion)
{
    Fixture fx;
    const Addr lock = fx.as.allocSync();
    const Addr counter = fx.as.allocSharedLineAligned(2);
    const Addr inCs = counter + kWordBytes;
    std::uint64_t maxSeen = 0;

    Simulation sim(fx.machine, 4);
    for (unsigned t = 0; t < 4; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  criticalIncrements(fx.rt, *fx.ctxs[t], lock, counter,
                                     inCs, 25, maxSeen));
    ASSERT_TRUE(sim.run(1000000000ULL));
    EXPECT_EQ(maxSeen, 1u) << "two threads were in the CS at once";
    EXPECT_EQ(sim.memory().load(counter), 100u)
        << "increments lost: mutual exclusion broken";
    EXPECT_EQ(sim.memory().load(lock), SyncRuntime::kLockFree);
}

TEST(SyncRuntime, RemovedLockBreaksExclusion)
{
    // Removing one lock instance must (a) skip its unlock too and
    // (b) usually lose increments under contention.
    class SkipFirst : public SyncInstanceFilter
    {
      public:
        bool
        skipInstance(ThreadId tid, std::uint64_t seq,
                     SyncInstanceKind) override
        {
            return tid == 0 && seq < 10; // remove thread 0's first 10
        }
    } filter;

    Fixture fx(&filter);
    const Addr lock = fx.as.allocSync();
    const Addr counter = fx.as.allocSharedLineAligned(2);
    const Addr inCs = counter + kWordBytes;
    std::uint64_t maxSeen = 0;

    Simulation sim(fx.machine, 4);
    for (unsigned t = 0; t < 4; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  criticalIncrements(fx.rt, *fx.ctxs[t], lock, counter,
                                     inCs, 25, maxSeen));
    ASSERT_TRUE(sim.run(1000000000ULL));
    EXPECT_EQ(fx.rt.removedInstances(), 10u);
    EXPECT_GT(maxSeen, 1u) << "exclusion should have been violated";
    EXPECT_EQ(sim.memory().load(lock), SyncRuntime::kLockFree)
        << "skipped unlocks must not free a lock they do not hold";
}

Task<void>
flagProducer(SyncRuntime &rt, ThreadCtx &ctx, Addr data, Addr flag)
{
    co_await opCompute(500);
    co_await opStore(data, 1234);
    co_await rt.flagSet(ctx, flag, 1);
}

Task<void>
flagConsumer(SyncRuntime &rt, ThreadCtx &ctx, Addr data, Addr flag,
             std::uint64_t &seen)
{
    co_await rt.flagWait(ctx, flag, 1);
    seen = (co_await opLoad(data)).value;
}

TEST(SyncRuntime, FlagWaitObservesProducerValue)
{
    Fixture fx;
    const Addr flag = fx.as.allocSync();
    const Addr data = fx.as.allocSharedLineAligned(1);
    std::uint64_t seen[3] = {};

    Simulation sim(fx.machine, 4);
    sim.spawn(0, flagProducer(fx.rt, *fx.ctxs[0], data, flag));
    for (unsigned t = 1; t < 4; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  flagConsumer(fx.rt, *fx.ctxs[t], data, flag,
                               seen[t - 1]));
    ASSERT_TRUE(sim.run(1000000000ULL));
    for (auto v : seen)
        EXPECT_EQ(v, 1234u);
}

Task<void>
barrierPhases(SyncRuntime &rt, ThreadCtx &ctx, const BarrierVars &b,
              Addr phaseData, unsigned phases, bool &orderOk)
{
    for (unsigned p = 0; p < phases; ++p) {
        // Write my per-phase slot, then after the barrier verify that
        // everyone else's slot for this phase is visible.
        co_await opStore(phaseData +
                             (p * b.nThreads + ctx.tid) * kWordBytes,
                         p + 1);
        co_await rt.barrier(ctx, b);
        for (unsigned t = 0; t < b.nThreads; ++t) {
            const std::uint64_t v =
                (co_await opLoad(phaseData +
                                 (p * b.nThreads + t) * kWordBytes))
                    .value;
            if (v != p + 1)
                orderOk = false;
        }
        co_await rt.barrier(ctx, b);
    }
}

TEST(SyncRuntime, BarrierSeparatesPhases)
{
    Fixture fx;
    BarrierVars b = SyncRuntime::makeBarrier(fx.as, 4);
    const unsigned phases = 5;
    const Addr phaseData = fx.as.allocSharedLineAligned(phases * 4);
    bool orderOk = true;

    Simulation sim(fx.machine, 4);
    for (unsigned t = 0; t < 4; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  barrierPhases(fx.rt, *fx.ctxs[t], b, phaseData,
                                phases, orderOk));
    ASSERT_TRUE(sim.run(1000000000ULL));
    EXPECT_TRUE(orderOk) << "a thread passed the barrier early";
}

TEST(SyncRuntime, InstanceAccountingPerThread)
{
    Fixture fx;
    const Addr lock = fx.as.allocSync();
    const Addr counter = fx.as.allocSharedLineAligned(2);
    const Addr inCs = counter + kWordBytes;
    std::uint64_t maxSeen = 0;

    Simulation sim(fx.machine, 4);
    for (unsigned t = 0; t < 4; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  criticalIncrements(fx.rt, *fx.ctxs[t], lock, counter,
                                     inCs, 10 + t, maxSeen));
    ASSERT_TRUE(sim.run(1000000000ULL));
    // Each lock() call is exactly one removable instance.
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(fx.rt.instancesIssued(static_cast<ThreadId>(t)),
                  10u + t);
    EXPECT_EQ(fx.rt.totalInstances(), 10u + 11 + 12 + 13);
    EXPECT_EQ(fx.rt.lockInstances(), fx.rt.totalInstances());
    EXPECT_EQ(fx.rt.flagInstances(), 0u);
}

TEST(SyncRuntime, BarrierInstancesDecomposeIntoPrimitives)
{
    // One barrier invocation per thread = one internal lock pair per
    // thread + one flag wait per non-last thread (paper Section 3.4).
    Fixture fx;
    BarrierVars b = SyncRuntime::makeBarrier(fx.as, 4);

    auto body = [](SyncRuntime &rt, ThreadCtx &ctx,
                   const BarrierVars &bar) -> Task<void> {
        co_await rt.barrier(ctx, bar);
    };

    Simulation sim(fx.machine, 4);
    for (unsigned t = 0; t < 4; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  body(fx.rt, *fx.ctxs[t], b));
    ASSERT_TRUE(sim.run(1000000000ULL));
    EXPECT_EQ(fx.rt.lockInstances(), 4u);
    EXPECT_EQ(fx.rt.flagInstances(), 3u);
}

// Per-reader "inside" slots, each written by exactly its own thread:
// concurrent readers are legal under the lock, so a shared counter
// updated with plain load/store would itself race.
Task<void>
rwReader(SyncRuntime &rt, ThreadCtx &ctx, Addr rw, Addr counter,
         Addr inSlots, unsigned nReaders, unsigned iters,
         std::uint64_t &maxReaders, bool &sawTear)
{
    const Addr mySlot = inSlots + ctx.tid * kWordBytes;
    for (unsigned i = 0; i < iters; ++i) {
        co_await rt.rwReadLock(ctx, rw);
        co_await opStore(mySlot, 1);
        std::uint64_t in = 0;
        for (unsigned r = 0; r < nReaders; ++r)
            in += (co_await opLoad(inSlots + r * kWordBytes)).value;
        if (in > maxReaders)
            maxReaders = in;
        // The counter must be stable across a read-side critical
        // section: a writer sneaking in mid-read tears it.
        const std::uint64_t a = (co_await opLoad(counter)).value;
        co_await opCompute(30);
        const std::uint64_t b = (co_await opLoad(counter)).value;
        if (a != b)
            sawTear = true;
        co_await opStore(mySlot, 0);
        co_await rt.rwReadUnlock(ctx, rw);
        co_await opCompute(10);
    }
}

Task<void>
rwWriter(SyncRuntime &rt, ThreadCtx &ctx, Addr rw, Addr counter,
         Addr inSlots, unsigned nReaders, unsigned iters,
         bool &writerSawReader)
{
    for (unsigned i = 0; i < iters; ++i) {
        co_await rt.rwWriteLock(ctx, rw);
        for (unsigned r = 0; r < nReaders; ++r)
            if ((co_await opLoad(inSlots + r * kWordBytes)).value != 0)
                writerSawReader = true;
        const std::uint64_t v = (co_await opLoad(counter)).value;
        co_await opCompute(25);
        co_await opStore(counter, v + 1);
        co_await rt.rwWriteUnlock(ctx, rw);
        co_await opCompute(15);
    }
}

TEST(SyncRuntime, RwLockReadersShareWritersExclude)
{
    Fixture fx;
    const Addr rw = fx.as.allocSync();
    const Addr counter = fx.as.allocSharedLineAligned(4);
    const Addr inSlots = counter + kWordBytes;
    std::uint64_t maxReaders = 0;
    bool sawTear = false, writerSawReader = false;

    Simulation sim(fx.machine, 4);
    for (unsigned t = 0; t < 3; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  rwReader(fx.rt, *fx.ctxs[t], rw, counter, inSlots, 3,
                           20, maxReaders, sawTear));
    sim.spawn(3, rwWriter(fx.rt, *fx.ctxs[3], rw, counter, inSlots, 3,
                          15, writerSawReader));
    ASSERT_TRUE(sim.run(1000000000ULL));
    EXPECT_GT(maxReaders, 1u)
        << "readers never overlapped: the lock is not shared-mode";
    EXPECT_FALSE(sawTear)
        << "a writer updated the counter inside a read section";
    EXPECT_FALSE(writerSawReader)
        << "a reader was active inside a write section";
    EXPECT_EQ(sim.memory().load(counter), 15u);
    EXPECT_EQ(sim.memory().load(rw), 0u) << "lock word not released";
    EXPECT_EQ(fx.rt.rwReadInstances(), 3u * 20u);
    EXPECT_EQ(fx.rt.rwWriteInstances(), 15u);
    // rwlock instances are removable sync instances like lock pairs.
    EXPECT_EQ(fx.rt.totalInstances(), 3u * 20u + 15u);
}

TEST(SyncRuntime, RemovedRwWriteLockBreaksExclusion)
{
    // Removing a writer's RwWritePair instance must let it write while
    // readers are inside, and must skip the matching unlock.
    class SkipWriter : public SyncInstanceFilter
    {
      public:
        bool
        skipInstance(ThreadId tid, std::uint64_t,
                     SyncInstanceKind kind) override
        {
            return tid == 3 && kind == SyncInstanceKind::RwWritePair;
        }
    } filter;

    Fixture fx(&filter);
    const Addr rw = fx.as.allocSync();
    const Addr counter = fx.as.allocSharedLineAligned(4);
    const Addr inSlots = counter + kWordBytes;
    std::uint64_t maxReaders = 0;
    bool sawTear = false, writerSawReader = false;

    Simulation sim(fx.machine, 4);
    for (unsigned t = 0; t < 3; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  rwReader(fx.rt, *fx.ctxs[t], rw, counter, inSlots, 3,
                           20, maxReaders, sawTear));
    sim.spawn(3, rwWriter(fx.rt, *fx.ctxs[3], rw, counter, inSlots, 3,
                          15, writerSawReader));
    ASSERT_TRUE(sim.run(1000000000ULL));
    EXPECT_EQ(fx.rt.removedInstances(), 15u);
    EXPECT_TRUE(sawTear || writerSawReader)
        << "removal should have let the writer overlap a reader";
    EXPECT_EQ(sim.memory().load(rw), 0u)
        << "skipped unlocks must not corrupt the lock word";
}

TEST(SyncRuntime, JitteredSpinPreservesMutualExclusion)
{
    // The server tier runs with jittered spin retries (to break
    // deterministic phase-lock); jitter must not affect correctness.
    AddressSpace as;
    MachineConfig machine;
    SyncRuntime rt(nullptr, /*jitterSpin=*/true);
    std::vector<std::unique_ptr<ThreadCtx>> ctxs;
    for (unsigned t = 0; t < 4; ++t) {
        ctxs.push_back(std::make_unique<ThreadCtx>());
        ctxs.back()->tid = static_cast<ThreadId>(t);
        ctxs.back()->rng.reseed(200 + t);
    }
    const Addr lock = as.allocSync();
    const Addr counter = as.allocSharedLineAligned(2);
    const Addr inCs = counter + kWordBytes;
    std::uint64_t maxSeen = 0;

    Simulation sim(machine, 4);
    for (unsigned t = 0; t < 4; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  criticalIncrements(rt, *ctxs[t], lock, counter, inCs,
                                     25, maxSeen));
    ASSERT_TRUE(sim.run(1000000000ULL));
    EXPECT_EQ(maxSeen, 1u);
    EXPECT_EQ(sim.memory().load(counter), 100u);
}

} // namespace
} // namespace cord
