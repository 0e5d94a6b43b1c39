/**
 * @file
 * Unit tests for the flat open-addressing Addr map (sim/flat_map.h):
 * lookup/insert/erase semantics, backward-shift deletion under
 * collision chains, insertion-order iteration, and rehash survival.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/flat_map.h"

namespace cord
{
namespace
{

TEST(FlatAddrMap, StartsEmpty)
{
    FlatAddrMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_FALSE(m.erase(42));
}

TEST(FlatAddrMap, InsertFindRoundTrip)
{
    FlatAddrMap<int> m;
    m[64] = 7;
    m[0] = 9; // key 0 must not be confused with empty buckets
    ASSERT_NE(m.find(64), nullptr);
    EXPECT_EQ(*m.find(64), 7);
    ASSERT_NE(m.find(0), nullptr);
    EXPECT_EQ(*m.find(0), 9);
    EXPECT_EQ(m.find(128), nullptr);
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatAddrMap, OperatorBracketDefaultConstructs)
{
    FlatAddrMap<std::uint64_t> m;
    EXPECT_EQ(m[1000], 0u);
    m[1000] += 5;
    EXPECT_EQ(m[1000], 5u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatAddrMap, SurvivesRehashWithValuesIntact)
{
    FlatAddrMap<std::uint64_t> m;
    constexpr std::uint64_t kN = 20000;
    for (std::uint64_t i = 0; i < kN; ++i)
        m[i * 64] = i * 3 + 1;
    ASSERT_EQ(m.size(), kN);
    for (std::uint64_t i = 0; i < kN; ++i) {
        const std::uint64_t *v = m.find(i * 64);
        ASSERT_NE(v, nullptr) << "lost key " << i * 64;
        EXPECT_EQ(*v, i * 3 + 1);
    }
}

TEST(FlatAddrMap, EraseRemovesAndReturnsPresence)
{
    FlatAddrMap<int> m;
    m[10] = 1;
    m[20] = 2;
    EXPECT_TRUE(m.erase(10));
    EXPECT_FALSE(m.erase(10));
    EXPECT_EQ(m.find(10), nullptr);
    ASSERT_NE(m.find(20), nullptr);
    EXPECT_EQ(*m.find(20), 2);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatAddrMap, BackwardShiftKeepsCollisionChainsReachable)
{
    // Dense sequential keys produce long probe chains once the table
    // fills toward its 0.7 load factor.  Erase every other key and
    // verify the survivors are all still reachable -- the classic
    // failure mode of a tombstone-free deletion that shifts the wrong
    // element over the hole.
    FlatAddrMap<std::uint64_t> m;
    constexpr std::uint64_t kN = 5000;
    for (std::uint64_t i = 0; i < kN; ++i)
        m[i] = i + 1;
    for (std::uint64_t i = 0; i < kN; i += 2)
        EXPECT_TRUE(m.erase(i));
    EXPECT_EQ(m.size(), kN / 2);
    for (std::uint64_t i = 0; i < kN; ++i) {
        const std::uint64_t *v = m.find(i);
        if (i % 2 == 0) {
            EXPECT_EQ(v, nullptr) << "erased key " << i << " resurfaced";
        } else {
            ASSERT_NE(v, nullptr) << "survivor " << i << " unreachable";
            EXPECT_EQ(*v, i + 1);
        }
    }
}

TEST(FlatAddrMap, EraseThenReinsert)
{
    FlatAddrMap<int> m;
    for (std::uint64_t i = 0; i < 100; ++i)
        m[i] = static_cast<int>(i);
    for (std::uint64_t i = 0; i < 100; ++i)
        m.erase(i);
    EXPECT_TRUE(m.empty());
    for (std::uint64_t i = 0; i < 100; ++i)
        m[i] = static_cast<int>(i) + 1000;
    for (std::uint64_t i = 0; i < 100; ++i) {
        ASSERT_NE(m.find(i), nullptr);
        EXPECT_EQ(*m.find(i), static_cast<int>(i) + 1000);
    }
}

TEST(FlatAddrMap, ForEachVisitsInInsertionOrder)
{
    FlatAddrMap<int> m;
    const std::vector<Addr> keys{512, 0, 99999, 64, 4096};
    for (std::size_t i = 0; i < keys.size(); ++i)
        m[keys[i]] = static_cast<int>(i);
    std::vector<Addr> seen;
    m.forEach([&](Addr k, int &v) {
        EXPECT_EQ(v, static_cast<int>(seen.size()));
        seen.push_back(k);
    });
    EXPECT_EQ(seen, keys);

    const FlatAddrMap<int> &cm = m;
    std::vector<Addr> seenConst;
    cm.forEach([&](Addr k, const int &) { seenConst.push_back(k); });
    EXPECT_EQ(seenConst, keys);
}

TEST(FlatAddrMap, EraseSwapsLastIntoHole)
{
    // Documented contract: erase() moves the last-inserted element
    // into the erased dense slot, so iteration order is perturbed
    // deterministically.
    FlatAddrMap<int> m;
    for (Addr k : {1, 2, 3, 4})
        m[k] = static_cast<int>(k);
    m.erase(2);
    std::vector<Addr> seen;
    m.forEach([&](Addr k, int &) { seen.push_back(k); });
    EXPECT_EQ(seen, (std::vector<Addr>{1, 4, 3}));
}

TEST(FlatAddrMap, ForEachMayMutateValues)
{
    FlatAddrMap<int> m;
    for (Addr k : {8, 16, 24})
        m[k] = 1;
    m.forEach([](Addr, int &v) { v *= 10; });
    EXPECT_EQ(*m.find(8), 10);
    EXPECT_EQ(*m.find(16), 10);
    EXPECT_EQ(*m.find(24), 10);
}

TEST(FlatAddrMap, ClearResetsToEmpty)
{
    FlatAddrMap<int> m;
    for (std::uint64_t i = 0; i < 200; ++i)
        m[i * 8] = 1;
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(0), nullptr);
    m[8] = 2; // usable again after clear
    EXPECT_EQ(*m.find(8), 2);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatAddrMap, MoveOnlyValues)
{
    FlatAddrMap<std::vector<int>> m;
    m[100].push_back(1);
    m[200].push_back(2);
    m.erase(100); // swap-remove uses std::move on the value
    ASSERT_NE(m.find(200), nullptr);
    EXPECT_EQ(m.find(200)->at(0), 2);
}

} // namespace
} // namespace cord
