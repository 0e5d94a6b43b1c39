/**
 * @file
 * SuffixGate (harness/trunk.h): whatever it holds back and whenever it
 * releases, every inner detector gets exactly the onAccess and
 * onThreadEnd calls of direct delivery, in the same order -- or, when
 * the run ends parked, no call at all.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <variant>
#include <vector>

#include "harness/trunk.h"

namespace cord
{
namespace
{

struct End
{
    ThreadId tid;
    std::uint64_t instrs;
    bool operator==(const End &) const = default;
};

struct Access
{
    Tick tick;
    ThreadId tid;
    CoreId core;
    Addr addr;
    AccessKind kind;
    std::uint64_t instrCount;
    std::uint64_t value;
    bool operator==(const Access &) const = default;
};

using Call = std::variant<Access, End>;

/** Records every call it gets. */
class Recorder : public Detector
{
  public:
    Recorder() : Detector("recorder") {}

    void
    onAccess(const MemEvent &ev) override
    {
        calls.push_back(Access{ev.tick, ev.tid, ev.core, ev.addr, ev.kind,
                               ev.instrCount, ev.value});
    }

    void
    onThreadEnd(ThreadId tid, std::uint64_t instrs) override
    {
        calls.push_back(End{tid, instrs});
    }

    void finish() override { ++finishes; }

    std::vector<Call> calls;
    int finishes = 0;
};

/** Stands in for the run's Ideal: reports a race on demand. */
class Trigger : public Detector
{
  public:
    Trigger() : Detector("trigger") {}
    void onAccess(const MemEvent &) override {}
    void fire() { report_.record({}); }
};

MemEvent
event(std::uint64_t i)
{
    MemEvent ev;
    ev.tick = i;
    ev.tid = static_cast<ThreadId>(i % 4);
    ev.core = static_cast<CoreId>(i % 2);
    ev.instrCount = i / 4;
    ev.addr = 8 * (i % 97);
    ev.kind = i % 3 ? AccessKind::DataRead : AccessKind::DataWrite;
    ev.value = i * 7;
    return ev;
}

/** One step of a synthetic run, delivered as Simulation does. */
struct Step
{
    std::size_t accesses = 0; //!< a batch of this many, if non-zero
    bool threadEnd = false;   //!< else a thread ends
    bool fire = false;        //!< the trigger reports a race first
};

/** Feeds the same stream to a gated pair and a directly fed pair. */
struct Harness
{
    Trigger trigger;
    Recorder gatedA, gatedB, directA, directB;
    SuffixGate gate{trigger, {&gatedA, &gatedB}};
    std::uint64_t next = 0;
    ThreadId ended = 0;

    void
    run(const std::vector<Step> &steps, bool finish)
    {
        for (const Step &s : steps) {
            if (s.fire)
                trigger.fire();
            if (s.threadEnd) {
                gate.onThreadEnd(ended, 1000 + ended);
                for (Recorder *r : {&directA, &directB})
                    r->onThreadEnd(ended, 1000 + ended);
                ++ended;
                continue;
            }
            std::vector<MemEvent> batch;
            for (std::size_t k = 0; k < s.accesses; ++k)
                batch.push_back(event(next++));
            gate.onAccesses(batch);
            for (Recorder *r : {&directA, &directB})
                r->onAccesses(batch);
        }
        if (finish) {
            gate.finish();
            directA.finish();
            directB.finish();
        }
    }

    void
    expectDirect() const
    {
        EXPECT_FALSE(gate.parked());
        EXPECT_EQ(gatedA.calls, directA.calls);
        EXPECT_EQ(gatedB.calls, directB.calls);
        EXPECT_EQ(gatedA.finishes, directA.finishes);
        EXPECT_EQ(gatedB.finishes, directB.finishes);
    }
};

TEST(SuffixGate, ForwardsUnparked)
{
    Harness h;
    h.run({{256}, {0, true}, {17}, {0, true}}, /*finish=*/true);
    h.expectDirect();
    EXPECT_EQ(h.gatedA.calls.size(), 256u + 1 + 17 + 1);
}

TEST(SuffixGate, ReleasesWhenTheTriggerFires)
{
    Harness h;
    h.run({{256}}, false); // the trunk's prefix
    h.gate.park();
    h.run({{256}, {100}}, false);
    EXPECT_TRUE(h.gate.parked());
    EXPECT_EQ(h.gatedA.calls.size(), 256u) << "parked calls leaked";
    h.run({{40, false, /*fire=*/true}, {256}}, /*finish=*/true);
    h.expectDirect();
}

TEST(SuffixGate, ReleasesAtTheLogBound)
{
    Harness h;
    h.gate.park();
    const std::size_t batches = SuffixGate::kLogBound / 256;
    h.run(std::vector<Step>(batches, Step{256}), false);
    EXPECT_TRUE(h.gate.parked()) << "a log of exactly the bound fits";
    EXPECT_TRUE(h.gatedA.calls.empty());
    h.run({{1}}, false);
    EXPECT_FALSE(h.gate.parked());
    EXPECT_EQ(h.gatedA.calls.size(), SuffixGate::kLogBound + 1);
    h.run({{256}, {0, true}, {3}}, /*finish=*/true);
    h.expectDirect();
}

TEST(SuffixGate, KeepsThreadEndsBetweenParkedAccesses)
{
    Harness h;
    h.run({{10}}, false);
    h.gate.park();
    h.run({{0, true}, {0, true}, {256}, {0, true}, {5}, {0, true}}, false);
    EXPECT_EQ(h.gatedA.calls.size(), 10u) << "parked calls leaked";
    h.run({{0, false, /*fire=*/true}, {7}, {0, true}}, /*finish=*/true);
    h.expectDirect();
    // Thread ends at the log's edges: first, last and back to back.
    Harness edges;
    edges.gate.park();
    edges.run({{0, true}, {9}, {0, true}, {0, true}}, false);
    edges.run({{0, true, /*fire=*/true}}, /*finish=*/true);
    edges.expectDirect();
}

TEST(SuffixGate, RunEndingParkedFeedsNothing)
{
    Harness h;
    h.run({{64}, {0, true}}, false);
    const std::vector<Call> prefix = h.gatedA.calls;
    h.gate.park();
    h.run({{256}, {0, true}, {256}, {0, true}}, /*finish=*/true);
    EXPECT_TRUE(h.gate.parked());
    EXPECT_EQ(h.gatedA.calls, prefix);
    EXPECT_EQ(h.gatedB.calls, prefix);
    EXPECT_EQ(h.gatedA.finishes, 0);
    EXPECT_EQ(h.gatedB.finishes, 0);
}

} // namespace
} // namespace cord
