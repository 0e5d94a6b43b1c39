/**
 * @file
 * Unit tests for the page-granular address table (sim/paged_table.h):
 * first-touch allocation and default state, sparse keys, the MRU page
 * switching back and forth, growth across many pages, reference
 * stability and first-touch iteration order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/paged_table.h"

namespace cord
{
namespace
{

struct Entry
{
    std::uint32_t tag = 7; //!< non-zero default: construction, not memset
    std::uint64_t value = 0;
};

using Table = PagedTable<Entry, 16>;

TEST(PagedTable, FirstTouchDefaultConstructsTheWholePage)
{
    Table t;
    EXPECT_EQ(t.pages(), 0u);
    EXPECT_EQ(t.find(5), nullptr);
    t[5].value = 42;
    EXPECT_EQ(t.pages(), 1u);
    for (std::uint64_t k = 0; k < Table::kEntries; ++k) {
        ASSERT_NE(t.find(k), nullptr) << k;
        EXPECT_EQ(t.find(k)->tag, 7u) << k;
        EXPECT_EQ(t.find(k)->value, k == 5 ? 42u : 0u) << k;
    }
    EXPECT_EQ(t.find(Table::kEntries), nullptr) << "next page untouched";
}

TEST(PagedTable, SparseKeysAllocateOnlyTheirPages)
{
    Table t;
    const std::uint64_t keys[] = {3, std::uint64_t{1} << 40,
                                  123456789, ~std::uint64_t{0}};
    for (std::uint64_t k : keys)
        t[k].value = k ^ 0x5a;
    EXPECT_EQ(t.pages(), 4u);
    for (std::uint64_t k : keys) {
        ASSERT_NE(t.find(k), nullptr) << k;
        EXPECT_EQ(t.find(k)->value, k ^ 0x5a) << k;
    }
    EXPECT_EQ(t.find((std::uint64_t{1} << 40) + Table::kEntries), nullptr);
    EXPECT_EQ(t.find(~std::uint64_t{0} - Table::kEntries), nullptr);
    EXPECT_EQ(t.pages(), 4u) << "find never allocates";
}

TEST(PagedTable, MruSwitchesBackAndForth)
{
    // Alternate between two pages (and a miss on a third) so every
    // access replaces the MRU page, with reads through find() and
    // writes through operator[] interleaved.
    Table t;
    const std::uint64_t a = 10, b = 10 + 5 * Table::kEntries;
    for (std::uint64_t i = 0; i < 100; ++i) {
        t[a + i % 4].value += 1;
        EXPECT_EQ(t.find(9 * Table::kEntries), nullptr);
        t[b + i % 4].value += 2;
        ASSERT_NE(t.find(a + i % 4), nullptr);
        EXPECT_EQ(t.find(a + i % 4)->value, i / 4 + 1) << i;
        const Table &ct = t;
        EXPECT_EQ(ct.find(b + i % 4)->value, 2 * (i / 4 + 1)) << i;
    }
    EXPECT_EQ(t.pages(), 2u);
}

TEST(PagedTable, GrowsAcrossManyPagesAndReferencesStayValid)
{
    // References taken early must survive thousands of later page
    // allocations (the page index rehashes and its dense storage
    // reallocates many times over).
    Table t;
    constexpr std::uint64_t kPages = 5000;
    Entry &first = t[1];
    first.value = 99;
    std::vector<Entry *> held;
    for (std::uint64_t p = 0; p < kPages; ++p) {
        Entry &e = t[p * Table::kEntries + p % Table::kEntries];
        e.value = p + 1000;
        if (p % 500 == 0)
            held.push_back(&e);
    }
    EXPECT_EQ(t.pages(), kPages);
    EXPECT_EQ(&t[1], &first);
    EXPECT_EQ(first.value, 99u);
    for (std::uint64_t i = 0; i < held.size(); ++i) {
        const std::uint64_t p = i * 500;
        EXPECT_EQ(held[i], &t[p * Table::kEntries + p % Table::kEntries]);
        EXPECT_EQ(held[i]->value, p + 1000);
    }
    for (std::uint64_t p = 0; p < kPages; ++p)
        ASSERT_EQ(t.find(p * Table::kEntries + p % Table::kEntries)->value,
                  p + 1000);
}

TEST(PagedTable, ForEachPageVisitsInFirstTouchOrder)
{
    Table t;
    const std::uint64_t pids[] = {7, 2, 900, 3};
    for (std::uint64_t pid : pids)
        t[pid * Table::kEntries + 1].value = pid;
    t[2 * Table::kEntries].value = 1; // a second touch does not reorder
    std::vector<std::uint64_t> seen;
    t.forEachPage([&](std::uint64_t pid, const Entry *page) {
        seen.push_back(pid);
        EXPECT_EQ(page[1].value, pid);
        EXPECT_EQ(page + 1, t.find(pid * Table::kEntries + 1));
    });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{7, 2, 900, 3}));
}

TEST(PagedTable, ClearDropsEveryPage)
{
    Table t;
    t[1].value = 5;
    t[1000].value = 6;
    t.clear();
    EXPECT_EQ(t.pages(), 0u);
    EXPECT_EQ(t.find(1), nullptr) << "the MRU page went too";
    EXPECT_EQ(t[1000].value, 0u);
    EXPECT_EQ(t[1000].tag, 7u);
}

} // namespace
} // namespace cord
