/**
 * @file
 * Unit tests for the discrete event kernel (sim/event_queue.h):
 * temporal ordering, same-tick priority ordering, insertion-order
 * tie-breaking, in-place turns (runsNext / claimNext) and allocation-
 * free steady state.  Tests name events by target index and drain the
 * queue with pop(), as Simulation::run does.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "sim/event_queue.h"

// Count every heap allocation this binary makes so the steady-state
// test below can assert the kernel's schedule/pop cycle is
// allocation-free.  Replaceable allocation functions must live at
// global scope; the counting is cheap enough to leave on for the whole
// binary.
static std::atomic<std::uint64_t> gHeapAllocs{0};

// GCC pairs the replaced delete below with the *default* operator new
// when diagnosing, so it flags free() as mismatched even though both
// replacements consistently use malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n)
{
    ++gHeapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace cord
{
namespace
{

/** A target naming event @p i (the kind does not matter to the queue). */
EventTarget
ev(std::uint32_t i)
{
    return {EventKind::CoreStep, i};
}

/** Pop every pending event, returning their indices in run order. */
std::vector<std::uint32_t>
drain(EventQueue &q)
{
    std::vector<std::uint32_t> order;
    while (!q.empty())
        order.push_back(q.pop().index);
    return order;
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    q.schedule(30, ev(3));
    q.schedule(10, ev(1));
    q.schedule(20, ev(2));
    EXPECT_EQ(drain(q), (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickPriorityOrder)
{
    EventQueue q;
    q.schedule(5, ev(3), 255);
    q.schedule(5, ev(2), EventQueue::kPriCore);
    q.schedule(5, ev(1), EventQueue::kPriResponse);
    q.schedule(5, ev(0), 0);
    q.schedule(5, ev(4), EventQueue::kPriDefault);
    EXPECT_EQ(drain(q), (std::vector<std::uint32_t>{0, 1, 2, 4, 3}));
}

TEST(EventQueue, SameTickSamePriorityInsertionOrder)
{
    EventQueue q;
    for (std::uint32_t i = 0; i < 16; ++i)
        q.schedule(7, ev(i));
    const std::vector<std::uint32_t> order = drain(q);
    ASSERT_EQ(order.size(), 16u);
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsScheduledFromEventsRun)
{
    EventQueue q;
    q.schedule(1, ev(0));
    int fired = 0;
    while (!q.empty()) {
        const EventTarget t = q.pop();
        ++fired;
        if (t.index < 2)
            q.scheduleIn(5, ev(t.index + 1));
    }
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 11u);
}

TEST(EventQueue, ZeroDelaySelfSchedulingAdvancesDeterministically)
{
    EventQueue q;
    q.schedule(0, ev(0));
    int count = 0;
    while (!q.empty()) {
        q.pop();
        if (++count < 100)
            q.scheduleIn(0, ev(0));
    }
    EXPECT_EQ(count, 100);
    EXPECT_EQ(q.now(), 0u);
}

TEST(EventQueue, GoldenSameTickSequence)
{
    // Frozen golden sequence for the same-tick (priority, insertion
    // seq) tie-break, including events scheduled from inside a
    // same-tick event (which receive a later seq and therefore run
    // after every already-pending event of their priority).  Replay
    // and the order log both lean on this order: if this test needs
    // updating, recorded schedules and order-log goldens break too, so
    // treat a diff here as a determinism regression, not a test chore.
    // Priorities 0 and 4 sit on either side of the engine's three.
    constexpr int kGrant = 0;
    constexpr int kWalker = 4;
    const std::vector<std::string> names{
        "t10.walker",   "t10.core.a", "t5.default.a", "t10.grant",
        "t10.response", "t5.grant",   "t10.core.b",   "t5.default.b",
        "t10.core.late",
    };
    EventQueue q;
    q.schedule(10, ev(0), kWalker);
    q.schedule(10, ev(1), EventQueue::kPriCore);
    q.schedule(5, ev(2));
    q.schedule(10, ev(3), kGrant);
    q.schedule(10, ev(4), EventQueue::kPriResponse);
    q.schedule(5, ev(5), kGrant);
    q.schedule(10, ev(6), EventQueue::kPriCore);
    q.schedule(5, ev(7));
    std::vector<std::string> seq;
    while (!q.empty()) {
        const std::uint32_t i = q.pop().index;
        seq.push_back(names[i]);
        // Same tick, scheduled mid-tick: runs after core.a and core.b
        // despite the equal priority.
        if (i == 3)
            q.scheduleIn(0, ev(8), EventQueue::kPriCore);
    }
    const std::vector<std::string> golden{
        "t5.grant",      "t5.default.a", "t5.default.b",
        "t10.grant",     "t10.response", "t10.core.a",
        "t10.core.b",    "t10.core.late", "t10.walker",
    };
    EXPECT_EQ(seq, golden);
}

TEST(EventQueue, PopReturnsTheScheduledTarget)
{
    EventQueue q;
    q.schedule(3, {EventKind::MemOpDone, 7}, EventQueue::kPriResponse);
    q.schedule(3, {EventKind::GateRetry, 0xfffffffe});
    const EventTarget a = q.pop();
    EXPECT_EQ(a.kind, EventKind::MemOpDone);
    EXPECT_EQ(a.index, 7u);
    const EventTarget b = q.pop();
    EXPECT_EQ(b.kind, EventKind::GateRetry);
    EXPECT_EQ(b.index, 0xfffffffeu);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executedEvents(), 2u);
}

TEST(EventQueue, RunsNextPredicate)
{
    EventQueue q;
    EXPECT_TRUE(q.runsNext(EventQueue::kPriCore)) << "empty queue";

    // Advance to tick 10 with a same-tick event left pending at each
    // priority in turn.
    q.schedule(10, ev(0));
    q.pop();
    ASSERT_EQ(q.now(), 10u);

    q.schedule(10, ev(0), EventQueue::kPriCore);
    EXPECT_FALSE(q.runsNext(EventQueue::kPriCore))
        << "same tick, equal priority: inserted earlier, runs first";
    q.pop();

    q.schedule(10, ev(0), EventQueue::kPriResponse);
    EXPECT_FALSE(q.runsNext(EventQueue::kPriCore))
        << "same tick, lower priority value runs first";
    q.pop();

    q.schedule(10, ev(0), EventQueue::kPriDefault);
    EXPECT_TRUE(q.runsNext(EventQueue::kPriCore))
        << "same tick, higher priority value runs later";
    q.pop();

    q.schedule(11, ev(0), 0);
    EXPECT_TRUE(q.runsNext(EventQueue::kPriCore)) << "later tick";
    EXPECT_TRUE(q.runsNext(EventQueue::kPriDefault)) << "later tick";
}

TEST(EventQueue, ClaimNextAccountsLikeScheduleAndStep)
{
    // Two queues in the same state: one schedules an event at
    // (now, kPriCore) and pops it, the other claims that turn in
    // place.  Both must end with the same executed count and order
    // every later event the same way.
    EventQueue a;
    EventQueue b;
    for (EventQueue *q : {&a, &b}) {
        q->schedule(4, ev(0));
        q->schedule(9, ev(9), EventQueue::kPriDefault);
        q->pop();
    }

    a.schedule(a.now(), ev(5), EventQueue::kPriCore);
    EXPECT_EQ(a.pop().index, 5u);
    ASSERT_TRUE(b.claimNext(EventQueue::kPriCore));

    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.executedEvents(), b.executedEvents());

    for (EventQueue *q : {&a, &b}) {
        q->schedule(9, ev(1), EventQueue::kPriDefault);
        q->schedule(9, ev(2), EventQueue::kPriCore);
    }
    const std::vector<std::uint32_t> orderA = drain(a);
    EXPECT_EQ(orderA, (std::vector<std::uint32_t>{2, 9, 1}));
    EXPECT_EQ(drain(b), orderA);
    EXPECT_EQ(a.executedEvents(), b.executedEvents());
}

TEST(EventQueue, ClaimNextRefusesWhenSomethingRunsFirst)
{
    EventQueue q;
    q.schedule(0, ev(1), EventQueue::kPriResponse);
    const std::uint64_t executed = q.executedEvents();
    EXPECT_FALSE(q.claimNext(EventQueue::kPriCore));
    EXPECT_EQ(q.executedEvents(), executed) << "a refused claim is a no-op";
    EXPECT_EQ(drain(q), (std::vector<std::uint32_t>{1}));
}

TEST(EventQueue, SteadyStateScheduleStepDoesNotAllocate)
{
    EventQueue q;
    std::uint64_t sink = 0;
    // Warm-up: grow the node heap to steady-state capacity (and let
    // gtest/stdlib finish their lazy init).
    for (std::uint32_t i = 0; i < 64; ++i)
        q.schedule(1, ev(i));
    while (!q.empty())
        sink += q.pop().index;

    const std::uint64_t before = gHeapAllocs.load();
    for (int round = 0; round < 32; ++round) {
        for (std::uint32_t i = 0; i < 64; ++i)
            q.schedule(q.now() + 1, ev(i));
        while (!q.empty())
            sink += q.pop().index;
    }
    const std::uint64_t after = gHeapAllocs.load();
    EXPECT_EQ(after, before)
        << "schedule/pop steady state must not touch the heap";
    EXPECT_EQ(sink, 33u * 2016u); // 33 rounds x sum(0..63)
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, ev(0));
    q.pop();
    EXPECT_DEATH(q.schedule(5, ev(0)), "past");
}

} // namespace
} // namespace cord
