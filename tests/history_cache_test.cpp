/**
 * @file
 * Unit tests for the detector residency model (cord/history_cache.h):
 * finite vs unbounded storage, eviction callbacks (the main-memory
 * timestamp fold point), invalidation, and the sharer index of
 * HistoryDirectory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cord/history_cache.h"
#include "sim/rng.h"

namespace cord
{
namespace
{

struct State
{
    int value = 0;
};

TEST(HistoryCache, InfiniteNeverEvicts)
{
    HistoryCache<State> c; // unbounded
    EXPECT_TRUE(c.infinite());
    int evictions = 0;
    auto onEvict = [&](Addr, State &) { ++evictions; };
    for (unsigned i = 0; i < 10000; ++i)
        c.getOrInsert(i * kLineBytes, onEvict).value = static_cast<int>(i);
    EXPECT_EQ(evictions, 0);
    EXPECT_EQ(c.residentCount(), 10000u);
    ASSERT_NE(c.find(17 * kLineBytes), nullptr);
    EXPECT_EQ(c.find(17 * kLineBytes)->value, 17);
}

TEST(HistoryCache, FiniteEvictsWithCallback)
{
    HistoryCache<State> c(CacheGeometry{512, 64, 2}); // 8 lines
    EXPECT_FALSE(c.infinite());
    std::set<Addr> evicted;
    auto onEvict = [&](Addr a, State &) { evicted.insert(a); };
    for (unsigned i = 0; i < 32; ++i)
        c.getOrInsert(i * kLineBytes, onEvict);
    EXPECT_EQ(c.residentCount(), 8u);
    EXPECT_EQ(evicted.size(), 24u);
}

TEST(HistoryCache, GetOrInsertIsStable)
{
    HistoryCache<State> c(CacheGeometry{512, 64, 2});
    auto noEvict = [](Addr, State &) {};
    c.getOrInsert(0x1000, noEvict).value = 7;
    // Word addresses inside the same line find the same state.
    EXPECT_EQ(c.getOrInsert(0x1004, noEvict).value, 7);
    EXPECT_EQ(c.find(0x1008)->value, 7);
}

TEST(HistoryCache, InfiniteSurvivesRehashAndKeepsValues)
{
    // Infinite mode stores state in dense vectors behind a flat hash
    // index (sim/flat_map.h): references are NOT stable across later
    // inserts (the no-hold-across-insert contract applies in both
    // modes), but every line's state must survive arbitrary growth and
    // rehashing intact.
    HistoryCache<State> c;
    c.getOrInsert(0).value = 7;
    for (unsigned i = 1; i < 20000; ++i) // force many rehashes
        c.getOrInsert(i * kLineBytes).value = static_cast<int>(i);
    ASSERT_NE(c.find(0), nullptr);
    EXPECT_EQ(c.find(0)->value, 7);
    ASSERT_NE(c.find(12345 * kLineBytes), nullptr);
    EXPECT_EQ(c.find(12345 * kLineBytes)->value, 12345);
    EXPECT_EQ(c.residentCount(), 20000u);
}

TEST(HistoryCache, FiniteEvictionRecyclesTheSlot)
{
    // Finite mode returns references into a fixed tag array: never
    // dangling, but an eviction reuses the victim's slot for the new
    // line.  This pins down the no-hold-across-insert contract
    // documented in history_cache.h -- a stale reference silently
    // aliases the replacement line's state.
    HistoryCache<State> c(CacheGeometry{128, 64, 2}); // one set, 2 ways
    State &first = c.getOrInsert(0 * kLineBytes);
    first.value = 11;
    c.getOrInsert(1 * kLineBytes).value = 22;
    // A third distinct line evicts LRU line 0 and recycles its slot.
    State &third = c.getOrInsert(2 * kLineBytes);
    EXPECT_EQ(&first, &third); // same storage, different line now
    EXPECT_EQ(first.value, 0); // state was reset for the new line
    EXPECT_EQ(c.find(0 * kLineBytes), nullptr);
}

TEST(HistoryCache, InvalidateRunsCallbackOnce)
{
    HistoryCache<State> c(CacheGeometry{512, 64, 2});
    int folds = 0;
    auto fold = [&](Addr, State &) { ++folds; };
    c.getOrInsert(0x2000);
    EXPECT_TRUE(c.invalidate(0x2000, fold));
    EXPECT_EQ(folds, 1);
    EXPECT_FALSE(c.invalidate(0x2000, fold));
    EXPECT_EQ(folds, 1);
    EXPECT_EQ(c.find(0x2000), nullptr);
}

TEST(HistoryCache, InfiniteInvalidate)
{
    HistoryCache<State> c;
    int folds = 0;
    c.getOrInsert(0x2000).value = 3;
    EXPECT_TRUE(c.invalidate(0x2004, [&](Addr, State &s) {
        folds += s.value;
    }));
    EXPECT_EQ(folds, 3);
    EXPECT_EQ(c.residentCount(), 0u);
}

TEST(HistoryCache, ForEachVisitsAll)
{
    HistoryCache<State> c(CacheGeometry{512, 64, 2});
    for (unsigned i = 0; i < 4; ++i)
        c.getOrInsert(i * kLineBytes).value = static_cast<int>(i);
    int sum = 0;
    c.forEach([&](Addr, State &s) { sum += s.value; });
    EXPECT_EQ(sum, 0 + 1 + 2 + 3);
}

TEST(HistoryCache, RecencyGoverned)
{
    HistoryCache<State> c(CacheGeometry{128, 64, 2}); // one set, 2 ways
    std::set<Addr> evicted;
    auto onEvict = [&](Addr a, State &) { evicted.insert(a); };
    c.getOrInsert(0 * kLineBytes, onEvict);
    c.getOrInsert(1 * kLineBytes, onEvict);
    c.getOrInsert(0 * kLineBytes, onEvict); // refresh line 0
    c.getOrInsert(2 * kLineBytes, onEvict); // evicts line 1
    EXPECT_EQ(evicted.count(1 * kLineBytes), 1u);
    EXPECT_NE(c.find(0), nullptr);
}

/** One HistoryDirectory configuration under random calls. */
struct DirectoryCase
{
    unsigned cores;
    bool infinite;
};

void
PrintTo(const DirectoryCase &c, std::ostream *os)
{
    *os << c.cores << (c.infinite ? "_infinite" : "_finite");
}

class HistoryDirectoryIndex : public ::testing::TestWithParam<DirectoryCase>
{
};

TEST_P(HistoryDirectoryIndex, SharersMatchResidencyScan)
{
    // The sharer index must equal a scan of every core's cache after
    // every call, and remote sharers must be visited in ascending core
    // order.  The scan of every cache is the reference.  Few lines,
    // many cores and (finite case) two ways per set keep lines shared
    // and victims frequent; 64 cores fill one mask and 72 spill past
    // it; half the lines sit 1GB away, on another page of the index.
    const DirectoryCase dc = GetParam();
    HistoryDirectory<State> dir(dc.cores, dc.infinite,
                                CacheGeometry{256, 64, 2}); // 2 sets
    Rng rng(dc.cores * 2 + (dc.infinite ? 1 : 0));
    constexpr unsigned kLines = 8;
    auto lineOf = [](std::uint64_t l) {
        return Addr{0x4000} + static_cast<Addr>(l % 4) * kLineBytes +
               static_cast<Addr>(l / 4) * (Addr{1} << 30);
    };
    auto remoteOf = [&](CoreId self, Addr a) {
        std::vector<CoreId> visited;
        dir.forEachRemote(self, a, dir.sharers(a),
                          [&](CoreId c, State &) { visited.push_back(c); });
        return visited;
    };
    auto scanOf = [&](CoreId self, Addr a) {
        std::vector<CoreId> resident;
        for (unsigned c = 0; c < dc.cores; ++c)
            if (c != self && dir.find(static_cast<CoreId>(c), a))
                resident.push_back(static_cast<CoreId>(c));
        return resident;
    };

    std::uint64_t victims = 0, drops = 0;
    for (int step = 0; step < 3000; ++step) {
        const auto core = static_cast<CoreId>(rng.below(dc.cores));
        const Addr a = lineOf(rng.below(kLines)) + rng.below(16) * 4;
        switch (rng.below(4)) {
        case 0:
        case 1:
            dir.getOrInsert(core, a, [&](Addr, State &) { ++victims; });
            break;
        case 2:
            dir.invalidate(core, a, [&](Addr, State &) { ++drops; });
            break;
        default: {
            const std::vector<CoreId> before = scanOf(core, a);
            std::vector<CoreId> dropped;
            dir.invalidateRemote(core, a, dir.sharers(a),
                                 [&](CoreId c, State &) {
                                     dropped.push_back(c);
                                 });
            EXPECT_EQ(dropped, before) << "step " << step;
            EXPECT_TRUE(scanOf(core, a).empty()) << "step " << step;
            break;
        }
        }
        // Two selves per line cover every core's bit: each one's own
        // bit is seen from the other.
        const auto other = static_cast<CoreId>((core + 1) % dc.cores);
        for (unsigned l = 0; l < kLines; ++l) {
            // Every core's bit of the line's masks, self included.
            const auto sharers = dir.sharers(lineOf(l));
            for (unsigned c = 0; c < dc.cores; ++c) {
                const auto id = static_cast<CoreId>(c);
                ASSERT_EQ(sharers.contains(id),
                          dir.find(id, lineOf(l)) != nullptr)
                    << "step " << step << ", line " << l << ", core " << c;
            }
            for (CoreId self : {core, other}) {
                const std::vector<CoreId> visited = remoteOf(self, lineOf(l));
                ASSERT_EQ(visited, scanOf(self, lineOf(l)))
                    << "step " << step << ", line " << l << ", self "
                    << self;
                ASSERT_TRUE(std::is_sorted(visited.begin(), visited.end()));
            }
        }
    }
    EXPECT_GT(drops, 0u);
    if (dc.infinite)
        EXPECT_EQ(victims, 0u);
    else
        EXPECT_GT(victims, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cores, HistoryDirectoryIndex,
    ::testing::Values(DirectoryCase{4, false}, DirectoryCase{4, true},
                      DirectoryCase{16, false}, DirectoryCase{16, true},
                      DirectoryCase{64, false}, DirectoryCase{64, true},
                      DirectoryCase{72, false}, DirectoryCase{72, true}),
    [](const ::testing::TestParamInfo<DirectoryCase> &p) {
        return std::to_string(p.param.cores) +
               (p.param.infinite ? "_infinite" : "_finite");
    });

} // namespace
} // namespace cord
