/**
 * @file
 * Unit tests for scalar clock utilities (cord/clock.h): the 16-bit
 * sliding-window reconstruction (paper Section 2.7.5), order-race and
 * D-margin synchronization tests (Sections 2.4, 2.6), plus vector
 * clock algebra (cord/vector_clock.h).
 */

#include <gtest/gtest.h>

#include <utility>

#include "cord/clock.h"
#include "cord/vector_clock.h"

namespace cord
{
namespace
{

TEST(ScalarClock, ReconstructIdentity)
{
    for (Ts64 ref : {0ULL, 1ULL, 65535ULL, 65536ULL, 123456789ULL}) {
        EXPECT_EQ(reconstructTs(ref, static_cast<Ts16>(ref)), ref);
    }
}

TEST(ScalarClock, ReconstructBelowReference)
{
    const Ts64 ref = 100000;
    for (Ts64 delta = 1; delta < kClockWindow; delta *= 3) {
        const Ts64 ts = ref - delta;
        EXPECT_EQ(reconstructTs(ref, static_cast<Ts16>(ts)), ts)
            << "delta " << delta;
    }
}

TEST(ScalarClock, ReconstructAboveReference)
{
    const Ts64 ref = 100000;
    for (Ts64 delta = 1; delta < kClockWindow; delta *= 3) {
        const Ts64 ts = ref + delta;
        EXPECT_EQ(reconstructTs(ref, static_cast<Ts16>(ts)), ts)
            << "delta " << delta;
    }
}

TEST(ScalarClock, ReconstructAcross16BitWraparound)
{
    // Reference just past a 16-bit boundary; timestamp just before it.
    const Ts64 ref = (1ULL << 16) + 5;
    const Ts64 ts = (1ULL << 16) - 3;
    EXPECT_EQ(reconstructTs(ref, static_cast<Ts16>(ts)), ts);
    // And the other direction.
    EXPECT_EQ(reconstructTs(ts, static_cast<Ts16>(ref)), ref);
}

TEST(ScalarClock, SixtyFourCoreSkewSurvivesWraparound)
{
    // Many-core check: with 64 cores whose clocks are mutually skewed
    // by up to D per migration/synchronization step, the total spread
    // a comparison can see is ~64*D -- far inside the 2^15-1 window,
    // so the 16-bit comparison must stay exact even while the cohort
    // straddles a 16-bit epoch boundary.
    constexpr std::uint32_t d = 16; // default margin D
    constexpr unsigned cores = 64;
    static_assert(cores * d < kClockWindow,
                  "64-core worst-case skew must fit the window");
    // Park the cohort across several consecutive wraparounds.
    for (Ts64 epoch = 1; epoch <= 3; ++epoch) {
        const Ts64 boundary = epoch << 16;
        for (unsigned c = 0; c < cores; ++c) {
            const Ts64 ts = boundary - (cores / 2) * d + c * d;
            for (unsigned r = 0; r < cores; ++r) {
                const Ts64 ref = boundary - (cores / 2) * d + r * d;
                ASSERT_TRUE(withinWindow(ref, ts));
                ASSERT_EQ(reconstructTs(ref, static_cast<Ts16>(ts)), ts)
                    << "epoch " << epoch << " core " << c << " ref core "
                    << r;
            }
        }
    }
}

TEST(ScalarClock, WindowBoundary)
{
    const Ts64 ref = 1000000;
    EXPECT_TRUE(withinWindow(ref, ref));
    EXPECT_TRUE(withinWindow(ref, ref - (kClockWindow - 1)));
    EXPECT_TRUE(withinWindow(ref, ref + (kClockWindow - 1)));
    EXPECT_FALSE(withinWindow(ref, ref - kClockWindow));
    EXPECT_FALSE(withinWindow(ref, ref + kClockWindow));
}

TEST(ScalarClock, OrderRaceRule)
{
    // Paper Section 2.4: race iff thread clock <= timestamp.
    EXPECT_TRUE(isOrderRace(5, 5));
    EXPECT_TRUE(isOrderRace(5, 6));
    EXPECT_FALSE(isOrderRace(6, 5));
}

TEST(ScalarClock, SynchronizedMarginD)
{
    // Paper Section 2.6: synchronized iff clock - ts >= D.
    EXPECT_TRUE(isSynchronized(21, 5, 16));
    EXPECT_TRUE(isSynchronized(100, 5, 16));
    EXPECT_FALSE(isSynchronized(20, 5, 16)); // exactly D-1 above
    EXPECT_FALSE(isSynchronized(5, 5, 16));
    EXPECT_FALSE(isSynchronized(4, 5, 16));
    // D = 1 degenerates to the plain order test.
    EXPECT_TRUE(isSynchronized(6, 5, 1));
    EXPECT_FALSE(isSynchronized(5, 5, 1));
}

TEST(VectorClock, JoinIsComponentwiseMax)
{
    VectorClock a(4);
    VectorClock b(4);
    a.setComponent(0, 5);
    a.setComponent(2, 9);
    b.setComponent(0, 3);
    b.setComponent(1, 7);
    a.join(b);
    EXPECT_EQ(a[0], 5u);
    EXPECT_EQ(a[1], 7u);
    EXPECT_EQ(a[2], 9u);
    EXPECT_EQ(a[3], 0u);
}

TEST(VectorClock, LessEqDetectsOrderAndConcurrency)
{
    VectorClock a(3);
    VectorClock b(3);
    a.setComponent(0, 1);
    b.setComponent(0, 2);
    EXPECT_TRUE(a.lessEq(b));
    EXPECT_FALSE(b.lessEq(a));

    // Make them concurrent.
    a.setComponent(1, 5);
    EXPECT_FALSE(a.lessEq(b));
    EXPECT_FALSE(b.lessEq(a));

    // Equal clocks are mutually lessEq.
    VectorClock c(3);
    VectorClock d(3);
    EXPECT_TRUE(c.lessEq(d));
    EXPECT_TRUE(d.lessEq(c));
    EXPECT_TRUE(c == d);
}

TEST(VectorClock, TickAdvancesOwnComponent)
{
    VectorClock a(2);
    a.tick(1);
    a.tick(1);
    EXPECT_EQ(a[0], 0u);
    EXPECT_EQ(a[1], 2u);
}

TEST(VectorClock, HappensBeforeTransitivity)
{
    // a -> b (join + tick), b -> c: then a -> c.
    VectorClock a(3);
    a.tick(0);
    VectorClock b(3);
    b.join(a);
    b.tick(1);
    VectorClock c(3);
    c.join(b);
    c.tick(2);
    EXPECT_TRUE(a.lessEq(c));
    EXPECT_FALSE(c.lessEq(a));
}

/** Widths past the inline storage, where components live on the heap. */
class WideVectorClock : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(WideVectorClock, AlgebraMatchesInlineSemantics)
{
    const unsigned n = GetParam();
    ASSERT_GT(n, VectorClock::kInlineComponents);
    VectorClock a(n);
    VectorClock b(n);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_EQ(a[i], 0u);
    a.setComponent(0, 5);
    a.setComponent(n - 1, 9);
    b.setComponent(0, 3);
    b.setComponent(n / 2, 7);
    EXPECT_FALSE(a.lessEq(b));
    EXPECT_FALSE(b.lessEq(a));

    VectorClock j = a;
    j.join(b);
    EXPECT_EQ(j[0], 5u);
    EXPECT_EQ(j[n / 2], 7u);
    EXPECT_EQ(j[n - 1], 9u);
    EXPECT_TRUE(a.lessEq(j));
    EXPECT_TRUE(b.lessEq(j));

    // A component past the inline width decides knows() and ==.
    EXPECT_TRUE(j.knows(Epoch(n - 1, 9)));
    EXPECT_FALSE(j.knows(Epoch(n - 1, 10)));
    j.tick(n - 1);
    EXPECT_EQ(j[n - 1], 10u);
    EXPECT_TRUE(j.knows(Epoch(n - 1, 10)));
    EXPECT_FALSE(j == a);
}

TEST_P(WideVectorClock, CopyAndMoveKeepComponents)
{
    const unsigned n = GetParam();
    VectorClock a(n);
    for (unsigned i = 0; i < n; ++i)
        a.setComponent(i, i * 3 + 1);

    VectorClock copy(a);
    EXPECT_TRUE(copy == a);
    copy.tick(n - 1); // the copy owns its own components
    EXPECT_EQ(a[n - 1], (n - 1) * 3 + 1);
    EXPECT_FALSE(copy == a);

    VectorClock assigned(n);
    assigned = a;
    EXPECT_TRUE(assigned == a);
    VectorClock narrow(2);
    narrow = a; // assignment across widths takes the source's width
    EXPECT_EQ(narrow.size(), n);
    EXPECT_TRUE(narrow == a);
    narrow = VectorClock(2);
    EXPECT_EQ(narrow.size(), 2u);

    VectorClock moved(std::move(copy));
    EXPECT_EQ(moved[n - 1], (n - 1) * 3 + 2);
    VectorClock moveAssigned(3);
    moveAssigned = std::move(moved);
    EXPECT_EQ(moveAssigned.size(), n);
    EXPECT_EQ(moveAssigned[0], 1u);
    EXPECT_EQ(moveAssigned[n - 1], (n - 1) * 3 + 2);
}

INSTANTIATE_TEST_SUITE_P(PastInlineWidth, WideVectorClock,
                         ::testing::Values(16u, 64u));

TEST(VectorClock, DifferentSizesAreNeverEqual)
{
    // All-zero clocks of different widths: equal components, yet not
    // the same clock -- on both sides of the inline width.
    EXPECT_FALSE(VectorClock(2) == VectorClock(3));
    EXPECT_FALSE(VectorClock(4) == VectorClock(16));
    EXPECT_FALSE(VectorClock(16) == VectorClock(64));
    EXPECT_FALSE(VectorClock() == VectorClock(1));
    EXPECT_TRUE(VectorClock(16) == VectorClock(16));
}

} // namespace
} // namespace cord
