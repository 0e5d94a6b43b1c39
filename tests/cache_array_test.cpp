/**
 * @file
 * Unit tests for the set-associative tag array (mem/cache_array.h):
 * residency, LRU replacement, set conflict behaviour, invalidation,
 * and the pinned victim and visit orders.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "mem/cache_array.h"

namespace cord
{
namespace
{

CacheGeometry
tinyGeo()
{
    // 4 sets x 2 ways of 64B lines = 512B.
    return CacheGeometry{512, 64, 2};
}

/** Address of line index i mapping to set (i % 4). */
Addr
lineOfSet(unsigned set, unsigned k)
{
    return static_cast<Addr>((k * 4 + set)) * 64;
}

TEST(CacheGeometry, DerivedQuantities)
{
    const CacheGeometry g = tinyGeo();
    EXPECT_EQ(g.numLines(), 8u);
    EXPECT_EQ(g.numSets(), 4u);
    g.validate();
    EXPECT_EQ(CacheGeometry::paperL2().sizeBytes, 32u * 1024);
    EXPECT_EQ(CacheGeometry::paperL1().sizeBytes, 8u * 1024);
}

TEST(CacheArray, InsertFindInvalidate)
{
    CacheArray<int> c(tinyGeo());
    std::optional<CacheArray<int>::Line> victim;
    auto &line = c.insert(0x1000, victim);
    EXPECT_FALSE(victim.has_value());
    line.state = 42;

    ASSERT_NE(c.find(0x1000), nullptr);
    EXPECT_EQ(c.find(0x1000)->state, 42);
    // Any address within the line finds it.
    ASSERT_NE(c.find(0x1004), nullptr);
    EXPECT_EQ(c.find(0x1004)->state, 42);
    EXPECT_EQ(c.find(0x2000), nullptr);

    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_EQ(c.find(0x1000), nullptr);
    EXPECT_FALSE(c.invalidate(0x1000));
}

TEST(CacheArray, LruEvictionWithinSet)
{
    CacheArray<int> c(tinyGeo());
    std::optional<CacheArray<int>::Line> victim;

    c.insert(lineOfSet(1, 0), victim).state = 10;
    c.insert(lineOfSet(1, 1), victim).state = 11;
    EXPECT_FALSE(victim.has_value());

    // Touch the first line so the second becomes LRU.
    ASSERT_NE(c.touch(lineOfSet(1, 0)), nullptr);

    c.insert(lineOfSet(1, 2), victim);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, lineOfSet(1, 1));
    EXPECT_EQ(victim->state, 11);

    EXPECT_NE(c.find(lineOfSet(1, 0)), nullptr);
    EXPECT_EQ(c.find(lineOfSet(1, 1)), nullptr);
    EXPECT_NE(c.find(lineOfSet(1, 2)), nullptr);
}

TEST(CacheArray, SetsAreIndependent)
{
    CacheArray<int> c(tinyGeo());
    std::optional<CacheArray<int>::Line> victim;
    // Fill set 0 beyond capacity; set 2 lines must stay resident.
    c.insert(lineOfSet(2, 0), victim);
    c.insert(lineOfSet(2, 1), victim);
    for (unsigned k = 0; k < 8; ++k)
        c.insert(lineOfSet(0, k), victim);
    EXPECT_NE(c.find(lineOfSet(2, 0)), nullptr);
    EXPECT_NE(c.find(lineOfSet(2, 1)), nullptr);
    EXPECT_EQ(c.residentCount(), 4u); // 2 ways set 0 + 2 ways set 2
}

TEST(CacheArray, ForEachVisitsExactlyResidentLines)
{
    CacheArray<int> c(tinyGeo());
    std::optional<CacheArray<int>::Line> victim;
    std::set<Addr> expect;
    for (unsigned set = 0; set < 4; ++set) {
        c.insert(lineOfSet(set, 0), victim);
        expect.insert(lineOfSet(set, 0));
    }
    c.invalidate(lineOfSet(3, 0));
    expect.erase(lineOfSet(3, 0));

    std::set<Addr> seen;
    c.forEach([&](CacheArray<int>::Line &line) {
        seen.insert(line.addr);
    });
    EXPECT_EQ(seen, expect);
}

TEST(CacheArray, TouchUpdatesRecency)
{
    CacheArray<int> c(tinyGeo());
    std::optional<CacheArray<int>::Line> victim;
    c.insert(lineOfSet(0, 0), victim).state = 1;
    c.insert(lineOfSet(0, 1), victim).state = 2;
    // Repeatedly touch the older line; insert a new one; the untouched
    // line must be the victim each time.
    c.touch(lineOfSet(0, 0));
    c.insert(lineOfSet(0, 2), victim);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->state, 2);
}

TEST(CacheArray, DropFreesTheWayForTheNextInsert)
{
    CacheArray<int> c(tinyGeo());
    std::optional<CacheArray<int>::Line> victim;
    c.insert(lineOfSet(1, 0), victim).state = 10;
    auto &second = c.insert(lineOfSet(1, 1), victim);
    second.state = 11;
    // Make the dropped line the most recently used, so the next insert
    // would evict the other way if the drop had not freed this one.
    ASSERT_EQ(c.touch(lineOfSet(1, 1)), &second);

    c.drop(second);
    EXPECT_EQ(c.find(lineOfSet(1, 1)), nullptr);
    EXPECT_EQ(c.residentCount(), 1u);
    EXPECT_FALSE(c.invalidate(lineOfSet(1, 1)));

    auto &fresh = c.insert(lineOfSet(1, 2), victim);
    EXPECT_FALSE(victim.has_value());
    EXPECT_EQ(&fresh, &second); // the freed way, not an eviction
    EXPECT_EQ(fresh.state, 0);  // with a fresh payload
    EXPECT_NE(c.find(lineOfSet(1, 0)), nullptr);
}

TEST(CacheArray, GoldenVictimAndVisitOrder)
{
    // A fixed mix of inserts, touches and invalidations over the 4x2
    // geometry.  The victims and the forEach order are pinned: the
    // cache models' replacement and the CORD walker's visit order both
    // feed the determinism goldens.
    CacheArray<int> c(tinyGeo());
    std::optional<CacheArray<int>::Line> victim;
    std::vector<Addr> victims;
    const auto put = [&](unsigned set, unsigned k) {
        c.insert(lineOfSet(set, k), victim).state =
            static_cast<int>(set * 10 + k);
        if (victim)
            victims.push_back(victim->addr);
    };
    put(0, 0);
    put(0, 1);
    put(3, 0);
    put(1, 0);
    c.touch(lineOfSet(0, 0));
    put(0, 2); // evicts (0,1)
    put(3, 1);
    c.touch(lineOfSet(3, 0));
    put(3, 2); // evicts (3,1)
    c.invalidate(lineOfSet(0, 0));
    put(0, 3); // takes the freed way
    put(0, 4); // evicts (0,2)
    put(1, 1);
    put(1, 2); // evicts (1,0)
    c.touch(lineOfSet(1, 1));
    put(1, 3); // evicts (1,2)
    EXPECT_EQ(victims,
              (std::vector<Addr>{lineOfSet(0, 1), lineOfSet(3, 1),
                                 lineOfSet(0, 2), lineOfSet(1, 0),
                                 lineOfSet(1, 2)}));

    std::vector<Addr> visited;
    c.forEach([&](CacheArray<int>::Line &line) {
        visited.push_back(line.addr);
        EXPECT_EQ(line.state, static_cast<int>(
                                  (line.addr / 64) % 4 * 10 +
                                  (line.addr / 64) / 4));
    });
    EXPECT_EQ(visited,
              (std::vector<Addr>{lineOfSet(0, 3), lineOfSet(0, 4),
                                 lineOfSet(1, 3), lineOfSet(1, 1),
                                 lineOfSet(3, 0), lineOfSet(3, 2)}));
}

TEST(CacheGeometryDeath, InvalidGeometriesAreFatal)
{
    CacheGeometry bad{500, 64, 2}; // size not a multiple of line
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "invalid cache geometry");
    CacheGeometry badSets{64 * 64 * 3, 64, 1}; // 192 sets: not pow2
    EXPECT_EXIT(badSets.validate(), ::testing::ExitedWithCode(1),
                "power of two");
}

} // namespace
} // namespace cord
