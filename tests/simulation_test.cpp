/**
 * @file
 * Unit tests for the execution engine (cpu/simulation.h): instruction
 * accounting, compute timing at the configured issue width, functional
 * value semantics (loads/stores/CAS through the value store), the
 * committed-access stream seen by detectors and its batched delivery,
 * read checksums, multiple threads per core, and the SpinUntil op.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cord/cord_detector.h"
#include "cord/detector.h"
#include "cpu/simulation.h"
#include "obs/tracer.h"

namespace cord
{
namespace
{

/** Captures the committed access stream. */
class Capture : public Detector
{
  public:
    Capture() : Detector("capture") {}
    std::vector<MemEvent> events;
    std::vector<std::pair<ThreadId, std::uint64_t>> ends;

    void onAccess(const MemEvent &ev) override { events.push_back(ev); }
    void
    onThreadEnd(ThreadId tid, std::uint64_t instrs) override
    {
        ends.emplace_back(tid, instrs);
    }
};

Task<void>
simpleProgram(Addr base)
{
    co_await opCompute(8);
    co_await opStore(base, 5);
    const OpResult r = co_await opLoad(base);
    co_await opStore(base + kWordBytes, r.value + 1);
    co_await opCas(base, 5, 9);
    co_await opCas(base, 5, 11); // fails: value is 9
}

TEST(Simulation, FunctionalSemanticsAndEventStream)
{
    MachineConfig cfg;
    Simulation sim(cfg, 1);
    Capture cap;
    sim.addDetector(&cap);
    sim.spawn(0, simpleProgram(0x1000));
    ASSERT_TRUE(sim.run());

    EXPECT_EQ(sim.memory().load(0x1000), 9u);
    EXPECT_EQ(sim.memory().load(0x1004), 6u);

    // Events: store, load, store, cas(read+write), cas(read only).
    ASSERT_EQ(cap.events.size(), 6u);
    EXPECT_EQ(cap.events[0].kind, AccessKind::DataWrite);
    EXPECT_EQ(cap.events[0].value, 5u);
    EXPECT_EQ(cap.events[1].kind, AccessKind::DataRead);
    EXPECT_EQ(cap.events[1].value, 5u);
    EXPECT_EQ(cap.events[2].kind, AccessKind::DataWrite);
    EXPECT_EQ(cap.events[3].kind, AccessKind::SyncRead);
    EXPECT_EQ(cap.events[4].kind, AccessKind::SyncWrite);
    EXPECT_EQ(cap.events[4].value, 9u);
    EXPECT_EQ(cap.events[5].kind, AccessKind::SyncRead);
    EXPECT_EQ(cap.events[5].value, 9u) << "failed CAS reads old value";

    // Instruction accounting: 8 compute + 5 memory ops.
    EXPECT_EQ(sim.instrCount(0), 13u);
    ASSERT_EQ(cap.ends.size(), 1u);
    EXPECT_EQ(cap.ends[0].second, 13u);
    // Successive events carry increasing instruction counts.
    EXPECT_EQ(cap.events[0].instrCount, 9u);
    EXPECT_EQ(cap.events[5].instrCount, 13u);
}

Task<void>
computeOnly(std::uint32_t n)
{
    co_await opCompute(n);
}

TEST(Simulation, ComputeRespectsIssueWidth)
{
    MachineConfig cfg;
    cfg.issueWidth = 4;
    Simulation sim(cfg, 1);
    sim.spawn(0, computeOnly(400));
    ASSERT_TRUE(sim.run());
    EXPECT_EQ(sim.finishTick(), 100u);
    EXPECT_EQ(sim.instrCount(0), 400u);
}

TEST(Simulation, ComputeScaleMultiplies)
{
    MachineConfig cfg;
    cfg.issueWidth = 4;
    cfg.computeScale = 10;
    Simulation sim(cfg, 1);
    sim.spawn(0, computeOnly(400));
    ASSERT_TRUE(sim.run());
    EXPECT_EQ(sim.finishTick(), 1000u);
    EXPECT_EQ(sim.instrCount(0), 4000u);
}

/** Compute @p n instructions, then spin until @p target; @p reached
 *  gets the spin's completion tick. */
Task<void>
computeThenSpin(std::uint32_t n, Tick target, Tick &reached)
{
    co_await opCompute(n);
    reached = (co_await opSpinUntil(target)).now;
}

TEST(SpinUntil, LandsExactlyOnTheTarget)
{
    MachineConfig cfg;
    Simulation sim(cfg, 1);
    Tick reached = 0;
    sim.spawn(0, computeThenSpin(10, 1003, reached));
    ASSERT_TRUE(sim.run());
    EXPECT_EQ(reached, 1003u);
    EXPECT_EQ(sim.finishTick(), 1003u);
}

TEST(SpinUntil, RetiresIssueWidthPerCycleUnscaled)
{
    for (unsigned scale : {1u, 256u}) {
        MachineConfig cfg;
        cfg.issueWidth = 4;
        cfg.computeScale = scale;
        Simulation sim(cfg, 1);
        Tick reached = 0;
        // opCompute(4) ends at tick `scale`; the spin covers the rest.
        const Tick target = 5000;
        sim.spawn(0, computeThenSpin(4, target, reached));
        ASSERT_TRUE(sim.run());
        EXPECT_EQ(reached, target) << "scale " << scale;
        EXPECT_EQ(sim.instrCount(0), 4u * scale + 4u * (target - scale))
            << "scale " << scale;
    }
}

TEST(SpinUntil, CostsOneCompletionEventOnAnIdleCore)
{
    auto eventsFor = [](Task<void> body) {
        MachineConfig cfg;
        Simulation sim(cfg, 1);
        sim.spawn(0, std::move(body));
        EXPECT_TRUE(sim.run());
        return sim.events().executedEvents();
    };
    Tick reached = 0;
    const std::uint64_t past = eventsFor(computeThenSpin(4, 0, reached));
    const std::uint64_t far =
        eventsFor(computeThenSpin(4, 100000, reached));
    const std::uint64_t computeOnlyEvents = eventsFor(computeOnly(4));
    // A past target costs nothing.  A far one costs what one compute op
    // does: its completion event, plus the issue step that completion
    // wakes, which runs in place but still counts as executed.
    EXPECT_EQ(past, computeOnlyEvents);
    EXPECT_EQ(far - past, 2u);
}

TEST(SpinUntil, PastTargetRetiresNothing)
{
    MachineConfig cfg;
    cfg.issueWidth = 4;
    Simulation sim(cfg, 1);
    std::vector<Tick> reached;
    auto body = [](std::vector<Tick> &out) -> Task<void> {
        co_await opCompute(40); // ends at tick 10
        out.push_back((co_await opSpinUntil(10)).now);
        out.push_back((co_await opSpinUntil(3)).now);
    };
    sim.spawn(0, body(reached));
    ASSERT_TRUE(sim.run());
    EXPECT_EQ(reached, (std::vector<Tick>{10, 10}));
    EXPECT_EQ(sim.instrCount(0), 40u);
    EXPECT_EQ(sim.finishTick(), 10u);
}

TEST(SpinUntil, LongGapDoesNotWrap)
{
    // 2^32 ticks at width 4 retire 2^34 instructions: past any 32-bit
    // count, in one chunk.
    MachineConfig cfg;
    cfg.issueWidth = 4;
    Simulation sim(cfg, 1);
    Tick reached = 0;
    const Tick target = (Tick{1} << 32) + 7;
    sim.spawn(0, computeThenSpin(0, target, reached));
    ASSERT_TRUE(sim.run());
    EXPECT_EQ(reached, target);
    EXPECT_EQ(sim.instrCount(0), 4 * target);
}

TEST(SimulationDeath, RejectsZeroComputeScaleAndIssueWidth)
{
    MachineConfig noScale;
    noScale.computeScale = 0;
    EXPECT_EXIT(Simulation(noScale, 1), ::testing::ExitedWithCode(1),
                "computeScale \\(0\\) must be at least 1");
    MachineConfig noWidth;
    noWidth.issueWidth = 0;
    EXPECT_EXIT(Simulation(noWidth, 1), ::testing::ExitedWithCode(1),
                "issueWidth \\(0\\)");
}

Task<void>
pingPong(Addr mine, Addr theirs, unsigned iters)
{
    for (unsigned i = 1; i <= iters; ++i) {
        co_await opStore(mine, i);
        OpResult r{};
        while (r.value < i)
            r = co_await opLoad(theirs);
    }
}

TEST(Simulation, TwoThreadsOneCore)
{
    // Both threads pinned to core 0 must still interleave (round-robin
    // at operation boundaries) and make progress.
    MachineConfig cfg;
    cfg.numCores = 1;
    Simulation sim(cfg, 2);
    sim.spawn(0, pingPong(0x100, 0x200, 20));
    sim.spawn(1, pingPong(0x200, 0x100, 20));
    ASSERT_TRUE(sim.run(100000000ULL));
    EXPECT_EQ(sim.memory().load(0x100), 20u);
    EXPECT_EQ(sim.memory().load(0x200), 20u);
}

TEST(Simulation, EightThreadsFourCores)
{
    MachineConfig cfg;
    Simulation sim(cfg, 8);
    for (unsigned t = 0; t < 8; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  simpleProgram(0x10000 + t * 0x1000));
    ASSERT_TRUE(sim.run(100000000ULL));
    for (unsigned t = 0; t < 8; ++t)
        EXPECT_EQ(sim.memory().load(0x10000 + t * 0x1000), 9u);
}

TEST(Simulation, ChecksumReflectsLoadedValues)
{
    MachineConfig cfg;
    Simulation simA(cfg, 1);
    simA.spawn(0, simpleProgram(0x1000));
    simA.run();
    Simulation simB(cfg, 1);
    simB.spawn(0, simpleProgram(0x1000));
    simB.run();
    EXPECT_EQ(simA.readChecksum(0), simB.readChecksum(0));

    // A different address stream yields a different checksum.
    Simulation simC(cfg, 1);
    simC.spawn(0, simpleProgram(0x2000));
    simC.run();
    EXPECT_NE(simA.readChecksum(0), simC.readChecksum(0));
}

TEST(Simulation, WatchdogReturnsFalse)
{
    // A thread that spins forever must trip the watchdog.
    MachineConfig cfg;
    Simulation sim(cfg, 1);
    auto spin = [](Addr a) -> Task<void> {
        for (;;) {
            const OpResult r = co_await opLoad(a);
            if (r.value == 1)
                co_return; // never: nobody stores
            co_await opCompute(16);
        }
    };
    sim.spawn(0, spin(0x100));
    EXPECT_FALSE(sim.run(50000));
    EXPECT_FALSE(sim.allFinished());
}

/**
 * Checks the delivery contract of the batched detector dispatch
 * (Simulation::addDetector): no access of a thread arrives after its
 * onThreadEnd, every committed access has arrived by then, and the
 * largest delivery lag (accesses committed but not yet seen) is
 * recorded.
 */
class DeliveryCheck : public Detector
{
  public:
    explicit DeliveryCheck(const Simulation &sim)
        : Detector("delivery"), sim_(sim)
    {
    }

    std::uint64_t seen = 0;
    std::uint64_t maxLag = 0;
    std::uint64_t seenAtFinish = 0;
    std::vector<bool> ended = std::vector<bool>(64, false);

    void
    onAccess(const MemEvent &ev) override
    {
        EXPECT_FALSE(ended[ev.tid])
            << "access of thread " << ev.tid << " after its end";
        ++seen;
        maxLag = std::max(maxLag, sim_.committedAccesses() - seen);
    }

    void
    onThreadEnd(ThreadId tid, std::uint64_t) override
    {
        EXPECT_EQ(seen, sim_.committedAccesses())
            << "thread " << tid << " ended with accesses undelivered";
        ended[tid] = true;
    }

    void finish() override { seenAtFinish = seen; }

  private:
    const Simulation &sim_;
};

Task<void>
storeLoop(Addr base, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        co_await opStore(base + (i % 64) * kWordBytes, i);
        co_await opLoad(base + ((i * 7) % 64) * kWordBytes);
    }
}

/** Four threads of different lengths: threads end mid-batch. */
void
spawnUnevenThreads(Simulation &sim)
{
    for (unsigned t = 0; t < 4; ++t)
        sim.spawn(static_cast<ThreadId>(t),
                  storeLoop(0x10000 + t * 0x1000, 150 * (t + 1)));
}

TEST(Simulation, BatchedDispatchEndsThreadsAfterTheirAccesses)
{
    MachineConfig cfg;
    Simulation sim(cfg, 4);
    DeliveryCheck check(sim);
    sim.addDetector(&check);
    spawnUnevenThreads(sim);
    ASSERT_TRUE(sim.run());
    EXPECT_EQ(check.seenAtFinish, sim.committedAccesses());
    EXPECT_EQ(check.seenAtFinish, 2u * 150 * (1 + 2 + 3 + 4));
    EXPECT_GT(check.maxLag, 0u) << "untraced runs deliver in batches";
    EXPECT_LT(check.maxLag, 256u) << "at most one batch late";
}

TEST(Simulation, TracedRunDeliversEachAccessAsItCommits)
{
    MachineConfig cfg;
    Simulation sim(cfg, 4);
    DeliveryCheck check(sim);
    sim.addDetector(&check);
    spawnUnevenThreads(sim);
    EventTracer tracer;
    {
        TracerScope scope(tracer);
        ASSERT_TRUE(sim.run());
    }
    EXPECT_EQ(check.seenAtFinish, sim.committedAccesses());
    EXPECT_EQ(check.maxLag, 0u) << "the trace ring must keep commit order";
}

TEST(Simulation, TimingCoupledRunDeliversEachAccessAsItCommits)
{
    MachineConfig cfg;
    Simulation sim(cfg, 4);
    CordDetector cord(CordConfig::forMachine(cfg, 4));
    DeliveryCheck check(sim);
    sim.addDetector(&cord);
    sim.addDetector(&check);
    sim.setTimingCord(&cord);
    spawnUnevenThreads(sim);
    ASSERT_TRUE(sim.run());
    EXPECT_EQ(check.seenAtFinish, sim.committedAccesses());
    EXPECT_EQ(check.maxLag, 0u)
        << "coupled traffic is charged at the commit tick";
    EXPECT_GT(cord.stats().get("cord.raceChecks"), 0u);
}

TEST(Simulation, WatchdogDeliversEveryCommittedAccess)
{
    MachineConfig cfg;
    Simulation sim(cfg, 1);
    DeliveryCheck check(sim);
    sim.addDetector(&check);
    auto spin = [](Addr a) -> Task<void> {
        for (;;) {
            const OpResult r = co_await opLoad(a);
            if (r.value == 1)
                co_return; // never: nobody stores
        }
    };
    sim.spawn(0, spin(0x100));
    ASSERT_FALSE(sim.run(50000));
    EXPECT_GT(sim.committedAccesses(), 256u) << "spans several batches";
    EXPECT_EQ(check.seen, sim.committedAccesses())
        << "a watchdog return must flush the batch";
}

TEST(SimulationDeath, SpawnTwiceIsABug)
{
    MachineConfig cfg;
    Simulation sim(cfg, 1);
    sim.spawn(0, computeOnly(1));
    EXPECT_DEATH(sim.spawn(0, computeOnly(1)), "twice");
}

TEST(SimulationDeath, RunWithoutSpawnIsABug)
{
    MachineConfig cfg;
    Simulation sim(cfg, 2);
    sim.spawn(0, computeOnly(1));
    EXPECT_DEATH(sim.run(), "never spawned");
}

} // namespace
} // namespace cord
