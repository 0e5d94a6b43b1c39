/**
 * @file
 * Unit tests for the order log and its per-thread writer
 * (cord/order_log.h): fragment accounting, zero-length elision, wire
 * size (paper Section 2.7.1: eight bytes per entry), and the 16-bit
 * wire clock.
 */

#include <gtest/gtest.h>

#include "cord/order_log.h"

namespace cord
{
namespace
{

TEST(OrderLog, AppendAndWireSize)
{
    OrderLog log;
    log.append(0, 1, 100);
    log.append(1, 2, 50);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.wireBytes(), 16u);
    EXPECT_EQ(log.entries()[0].tid, 0);
    EXPECT_EQ(log.entries()[0].clock, 1u);
    EXPECT_EQ(log.entries()[0].instrs, 100u);
}

TEST(OrderLog, ZeroInstructionFragmentsElided)
{
    OrderLog log;
    log.append(0, 1, 0);
    EXPECT_EQ(log.size(), 0u);
}

TEST(OrderLog, WireClockIs16Bit)
{
    OrderLogEntry e;
    e.clock = 0x12345;
    EXPECT_EQ(e.wireClock(), 0x2345);
}

TEST(OrderLogWriter, FragmentsCoverInstructionStream)
{
    OrderLog log;
    OrderLogWriter w;
    w.begin(log, 3, 1);
    EXPECT_EQ(w.clock(), 1u);

    // 10 instrs at clock 1, 5 at clock 4, 7 at clock 5.
    w.changeClock(4, 10);
    w.changeClock(5, 15);
    w.finish(22);

    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log.entries()[0].clock, 1u);
    EXPECT_EQ(log.entries()[0].instrs, 10u);
    EXPECT_EQ(log.entries()[1].clock, 4u);
    EXPECT_EQ(log.entries()[1].instrs, 5u);
    EXPECT_EQ(log.entries()[2].clock, 5u);
    EXPECT_EQ(log.entries()[2].instrs, 7u);
    std::uint64_t total = 0;
    for (const auto &e : log.entries())
        total += e.instrs;
    EXPECT_EQ(total, 22u);
}

TEST(OrderLogWriter, BackToBackChangesElideEmptyFragment)
{
    OrderLog log;
    OrderLogWriter w;
    w.begin(log, 0, 1);
    w.changeClock(2, 5);
    w.changeClock(9, 5); // zero instructions at clock 2
    w.finish(8);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log.entries()[0].clock, 1u);
    EXPECT_EQ(log.entries()[0].instrs, 5u);
    EXPECT_EQ(log.entries()[1].clock, 9u);
    EXPECT_EQ(log.entries()[1].instrs, 3u);
}

TEST(OrderLogWriter, FinishWithNoTrailingInstrsAppendsNothing)
{
    OrderLog log;
    OrderLogWriter w;
    w.begin(log, 0, 1);
    w.changeClock(2, 6);
    w.finish(6);
    ASSERT_EQ(log.size(), 1u);
}

TEST(OrderLogWriterDeath, ClockMustIncrease)
{
    OrderLog log;
    OrderLogWriter w;
    w.begin(log, 0, 10);
    EXPECT_DEATH(w.changeClock(10, 5), "forward");
    EXPECT_DEATH(w.changeClock(9, 5), "forward");
}

} // namespace
} // namespace cord
