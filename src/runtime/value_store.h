/**
 * @file
 * Functional memory: the architectural word values of the simulated
 * machine.  The timing caches (mem/timing_mem.h) track only tags, so
 * loads and stores read and update this single store at their commit
 * tick; the commit order defined by the event queue is the machine's
 * memory order.
 *
 * Storage is page-granular: words live in dense 512-word pages indexed
 * by a flat page table (sim/flat_map.h), with a one-entry MRU cache in
 * front.  Workload accesses are heavily page-local, so the common load
 * or store is a compare plus an array index, with no per-word hash
 * probe or allocation.  A per-page written bitmap keeps footprintWords()
 * exact (a page allocated by one store does not count its 511 untouched
 * words).
 */

#ifndef CORD_RUNTIME_VALUE_STORE_H
#define CORD_RUNTIME_VALUE_STORE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/flat_map.h"
#include "sim/types.h"

namespace cord
{

/** Word-granularity functional memory, zero-initialized. */
class ValueStore
{
  public:
    std::uint64_t
    load(Addr a) const
    {
        const std::uint64_t w = wordIndex(a);
        const Page *p = pageOf(w / kPageWords);
        return p ? p->words[w % kPageWords] : 0;
    }

    void
    store(Addr a, std::uint64_t v)
    {
        const std::uint64_t w = wordIndex(a);
        Page &p = ensurePage(w / kPageWords);
        const std::size_t off = w % kPageWords;
        std::uint64_t &bits = p.written[off >> 6];
        const std::uint64_t bit = std::uint64_t(1) << (off & 63);
        if ((bits & bit) == 0) {
            bits |= bit;
            ++wordCount_;
        }
        p.words[off] = v;
    }

    /** Atomic compare-and-swap at commit time.
     *  @return pair {old value, success} */
    std::pair<std::uint64_t, bool>
    compareAndSwap(Addr a, std::uint64_t expected, std::uint64_t desired)
    {
        const std::uint64_t old = load(a);
        if (old == expected) {
            store(a, desired);
            return {old, true};
        }
        return {old, false};
    }

    /** Number of distinct words ever stored to. */
    std::size_t footprintWords() const { return wordCount_; }

    void
    clear()
    {
        pages_.clear();
        pageIndex_.clear();
        wordCount_ = 0;
        mruPid_ = 0;
        mruIdx_ = 0;
    }

    /**
     * Visit every written word as (word address, value), e.g. for
     * final-state comparison in replay.  Visit order is page insertion
     * order, word order within a page -- deterministic for a given
     * access history, but not sorted by address.
     */
    template <typename Fn>
    void
    forEachWord(Fn &&fn) const
    {
        pageIndex_.forEach([&](Addr pid, const std::uint32_t &idx) {
            const Page &p = pages_[idx];
            for (std::size_t off = 0; off < kPageWords; ++off) {
                if (p.written[off >> 6] &
                    (std::uint64_t(1) << (off & 63)))
                    fn(static_cast<Addr>((pid * kPageWords + off) *
                                         kWordBytes),
                       p.words[off]);
            }
        });
    }

  private:
    static constexpr std::size_t kPageWords = 512; //!< 2KB of words

    struct Page
    {
        std::uint64_t words[kPageWords] = {};
        std::uint64_t written[kPageWords / 64] = {};
    };

    static std::uint64_t
    wordIndex(Addr a)
    {
        return wordAddr(a) / kWordBytes;
    }

    /** Resident page @p pid, or nullptr.  Refreshes the MRU entry
     *  (dense *index*, not a pointer: pages_ may reallocate later). */
    const Page *
    pageOf(std::uint64_t pid) const
    {
        if (mruPid_ == pid + 1)
            return &pages_[mruIdx_];
        const std::uint32_t *idx = pageIndex_.find(pid);
        if (!idx)
            return nullptr;
        mruPid_ = pid + 1;
        mruIdx_ = *idx;
        return &pages_[*idx];
    }

    Page &
    ensurePage(std::uint64_t pid)
    {
        if (const Page *p = pageOf(pid))
            return const_cast<Page &>(*p);
        const std::uint32_t idx =
            static_cast<std::uint32_t>(pages_.size());
        pages_.emplace_back();
        pageIndex_[pid] = idx;
        mruPid_ = pid + 1;
        mruIdx_ = idx;
        return pages_.back();
    }

    std::vector<Page> pages_;
    FlatAddrMap<std::uint32_t> pageIndex_;
    std::size_t wordCount_ = 0;
    mutable std::uint64_t mruPid_ = 0; //!< pid + 1; 0 = invalid
    mutable std::uint32_t mruIdx_ = 0;
};

} // namespace cord

#endif // CORD_RUNTIME_VALUE_STORE_H
