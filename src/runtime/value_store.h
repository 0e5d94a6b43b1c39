/**
 * @file
 * Functional memory: the architectural word values of the simulated
 * machine.  The timing caches (mem/timing_mem.h) track only tags, so
 * loads and stores read and update this single store at their commit
 * tick; the commit order defined by the event queue is the machine's
 * memory order.
 *
 * Storage is page-granular (sim/paged_table.h): words live in blocks
 * of 64, eight blocks (512 words, 2KB of address space) to a page.  Workload
 * accesses are heavily page-local, so the common load or store is a
 * compare plus an array index, with no per-word hash probe or
 * allocation.  Each block's written mask keeps footprintWords() exact
 * (a page allocated by one store does not count its 511 untouched
 * words).
 */

#ifndef CORD_RUNTIME_VALUE_STORE_H
#define CORD_RUNTIME_VALUE_STORE_H

#include <cstdint>
#include <utility>

#include "sim/paged_table.h"
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
        const Block *b = blocks_.find(w / kBlockWords);
        return b ? b->words[w % kBlockWords] : 0;
    }

    void
    store(Addr a, std::uint64_t v)
    {
        const std::uint64_t w = wordIndex(a);
        Block &b = blocks_[w / kBlockWords];
        const std::size_t off = w % kBlockWords;
        const std::uint64_t bit = std::uint64_t(1) << off;
        if ((b.written & bit) == 0) {
            b.written |= bit;
            ++wordCount_;
        }
        b.words[off] = v;
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
        blocks_.clear();
        wordCount_ = 0;
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
        blocks_.forEachPage([&](std::uint64_t pid, const Block *page) {
            for (std::size_t i = 0; i < Table::kEntries; ++i) {
                const Block &b = page[i];
                const std::uint64_t first =
                    (pid * Table::kEntries + i) * kBlockWords;
                for (std::size_t off = 0; off < kBlockWords; ++off)
                    if (b.written & (std::uint64_t(1) << off))
                        fn(static_cast<Addr>((first + off) * kWordBytes),
                           b.words[off]);
            }
        });
    }

  private:
    static constexpr std::size_t kBlockWords = 64;

    /** 64 consecutive words and which of them were ever stored. */
    struct Block
    {
        std::uint64_t words[kBlockWords] = {};
        std::uint64_t written = 0;
    };

    /** 8 blocks to a page: 4KB of values. */
    using Table = PagedTable<Block, 8>;

    static std::uint64_t
    wordIndex(Addr a)
    {
        return wordAddr(a) / kWordBytes;
    }

    Table blocks_;
    std::size_t wordCount_ = 0;
};

} // namespace cord

#endif // CORD_RUNTIME_VALUE_STORE_H
