/**
 * @file
 * Line -> set of cores: the sharer index of the detectors' history
 * directories (cord/history_cache.h) and the L2 holder sets of the
 * timing caches (mem/timing_mem.h).
 *
 * A line's set is one 64-bit mask per 64 cores, stored side by side in
 * a page-granular table keyed by line index (sim/paged_table.h), so
 * finding who holds a line is one table access, never a scan of every
 * core's cache.  A set's storage stays put for the life of the index,
 * so a caller may read a line's set once and use it for a whole
 * access.  Members are visited in ascending core order.
 */

#ifndef CORD_MEM_LINE_SHARERS_H
#define CORD_MEM_LINE_SHARERS_H

#include <bit>
#include <cstdint>

#include "sim/logging.h"
#include "sim/paged_table.h"
#include "sim/types.h"

namespace cord
{

/** Per-line core sets for a machine of a fixed core count. */
class LineSharers
{
  public:
    /** One line's core set: a view of its masks in the table. */
    class Set
    {
      public:
        // A view, like std::span: const members may change the set.
        void insert(CoreId c) const { m_[c / 64] |= bit(c); }
        void erase(CoreId c) const { m_[c / 64] &= ~bit(c); }
        bool contains(CoreId c) const { return (m_[c / 64] & bit(c)) != 0; }

        /** True when a core other than @p self is a member. */
        bool
        anyOther(CoreId self) const
        {
            for (unsigned g = 0; g < groups_; ++g)
                if ((m_[g] & ~selfBit(self, g)) != 0)
                    return true;
            return false;
        }

        /** fn(core) per member other than @p self, ascending; each
         *  64-core mask is copied first, so @p fn may erase the core it
         *  visits. */
        template <typename Fn>
        void
        forEachOther(CoreId self, Fn &&fn) const
        {
            for (unsigned g = 0; g < groups_; ++g) {
                for (std::uint64_t m = m_[g] & ~selfBit(self, g); m != 0;
                     m &= m - 1)
                    fn(static_cast<CoreId>(g * 64 + std::countr_zero(m)));
            }
        }

      private:
        friend class LineSharers;

        Set(std::uint64_t *m, unsigned groups) : m_(m), groups_(groups) {}

        static std::uint64_t bit(CoreId c) { return 1ull << c % 64; }

        static std::uint64_t
        selfBit(CoreId self, unsigned g)
        {
            return self / 64 == g ? bit(self) : 0;
        }

        std::uint64_t *m_;
        unsigned groups_;
    };

    explicit LineSharers(unsigned numCores)
        : groups_((numCores + 63) / 64), stride_(std::bit_ceil(groups_))
    {
        // A power-of-two stride keeps each line's masks on one page.
        cord_assert(stride_ <= Table::kEntries, "too many cores: ",
                    numCores);
    }

    /** The set of @p a's line (allocating its page on first touch). */
    Set of(Addr a) { return Set(&table_[key(a)], groups_); }

    /** True when @p c is in the set of @p a's line. */
    bool
    contains(Addr a, CoreId c) const
    {
        const std::uint64_t *m = table_.find(key(a));
        return m && (m[c / 64] & Set::bit(c)) != 0;
    }

  private:
    /** 4KB pages: 512 lines (32KB of address space) per 64 cores. */
    using Table = PagedTable<std::uint64_t, 512>;

    std::uint64_t key(Addr a) const { return a / kLineBytes * stride_; }

    Table table_;
    unsigned groups_; //!< 64-core masks per line
    unsigned stride_; //!< table entries per line
};

} // namespace cord

#endif // CORD_MEM_LINE_SHARERS_H
