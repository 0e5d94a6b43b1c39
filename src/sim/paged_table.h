/**
 * @file
 * Page-granular table of per-address state, for per-access hot paths.
 *
 * PagedTable maps an integer key -- a word or line index -- to an
 * entry.  Keys are grouped into pages of kPageEntries consecutive keys.
 * The first touch of any key of a page allocates the page with every
 * entry default-constructed; later accesses reach it through a
 * one-entry MRU cache in front of a page index (sim/flat_map.h).
 * Workload accesses are heavily page-local, so the common access is a
 * compare plus an array index, and a page change costs one probe of an
 * index kPageEntries times smaller than a per-key map would be.
 *
 * Pages are allocated one at a time and never move or go away before
 * clear(): a reference to an entry stays valid across every later
 * insert, unlike a reference into a FlatAddrMap.  Entries are never
 * removed; a caller that is done with a key resets its entry.
 *
 * forEachPage visits pages in first-touch order, so a walk is
 * deterministic for a given access history.
 */

#ifndef CORD_SIM_PAGED_TABLE_H
#define CORD_SIM_PAGED_TABLE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/flat_map.h"

namespace cord
{

/**
 * Key -> T table, paged by kPageEntries consecutive keys.
 *
 * @tparam T entry (default-constructible)
 * @tparam kPageEntries keys per page, a power of two
 */
template <typename T, std::size_t kPageEntries>
class PagedTable
{
    static_assert(std::has_single_bit(kPageEntries) && kPageEntries > 1,
                  "a page holds a power of two (> 1) of entries");

  public:
    static constexpr std::size_t kEntries = kPageEntries;

    /** The entry of @p key, allocating its page on first touch. */
    T &
    operator[](std::uint64_t key)
    {
        const std::uint64_t pid = key / kPageEntries;
        if (pid != mruPid_) [[unlikely]]
            fill(pid, true);
        return mru_[key % kPageEntries];
    }

    /** The entry of @p key, or nullptr when its page was never
     *  touched. */
    T *
    find(std::uint64_t key)
    {
        const std::uint64_t pid = key / kPageEntries;
        if (pid != mruPid_ && !fill(pid, false))
            return nullptr;
        return &mru_[key % kPageEntries];
    }

    const T *
    find(std::uint64_t key) const
    {
        return const_cast<PagedTable *>(this)->find(key);
    }

    /** Number of allocated pages. */
    std::size_t pages() const { return index_.size(); }

    /** Free every page; references into the table dangle. */
    void
    clear()
    {
        index_.clear();
        mruPid_ = kNoPage;
        mru_ = nullptr;
    }

    /** fn(page id, const T *entries) per page, in first-touch order;
     *  entry i of page p is key p * kEntries + i. */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        index_.forEach([&](Addr pid, const std::unique_ptr<T[]> &page) {
            fn(static_cast<std::uint64_t>(pid),
               static_cast<const T *>(page.get()));
        });
    }

  private:
    /** No key's page id: pages hold more than one 64-bit key. */
    static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

    /** Point the MRU entry at page @p pid, allocating it when absent
     *  and @p allocate is set.  @return false when absent (the MRU
     *  entry is then unchanged).  Out of line: the MRU hit is the hot
     *  path. */
    [[gnu::noinline]] bool
    fill(std::uint64_t pid, bool allocate)
    {
        std::unique_ptr<T[]> *page = index_.find(pid);
        if (!page) {
            if (!allocate)
                return false;
            std::unique_ptr<T[]> fresh = std::make_unique<T[]>(kPageEntries);
            page = &index_[pid];
            *page = std::move(fresh);
        }
        mruPid_ = pid;
        mru_ = page->get();
        return true;
    }

    FlatAddrMap<std::unique_ptr<T[]>> index_;
    /** MRU entry; mutable so that a const find() may refresh it. */
    mutable std::uint64_t mruPid_ = kNoPage;
    mutable T *mru_ = nullptr;
};

} // namespace cord

#endif // CORD_SIM_PAGED_TABLE_H
