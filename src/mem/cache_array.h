/**
 * @file
 * Generic set-associative cache tag array with true-LRU replacement.
 *
 * Used both by the timing model (MESI state per line) and by the
 * detectors' functional cache models (CORD/vector-clock state per line).
 * Only tags and per-line metadata are stored; data values live in the
 * global functional memory (see runtime/value_store.h).
 */

#ifndef CORD_MEM_CACHE_ARRAY_H
#define CORD_MEM_CACHE_ARRAY_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <vector>

#include "mem/geometry.h"
#include "sim/logging.h"
#include "sim/types.h"

namespace cord
{

/**
 * Allocator that starts every array on a host cache-line boundary, so
 * a set of CacheArray tags never straddles two host cache lines.
 */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }

    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, kAlign);
    }

    template <typename U>
    bool
    operator==(const CacheLineAllocator<U> &) const
    {
        return true;
    }
};

/**
 * Set-associative tag array holding one StateT per resident line.
 *
 * Tags live in a dense array apart from the payload: one 16-byte
 * {line address, LRU stamp} tag per way, so a lookup in a 4-way set
 * reads one host cache line and touches the payload only on a hit.
 *
 * @tparam StateT per-line metadata (must be default-constructible)
 */
template <typename StateT>
class CacheArray
{
  public:
    /** A resident line's payload: its address plus the metadata. */
    struct Line
    {
        Addr addr = 0; //!< line-aligned address
        StateT state{};
    };

    explicit CacheArray(const CacheGeometry &geo)
        : geo_(geo), tags_(geo.numSets() * geo.ways),
          lines_(geo.numSets() * geo.ways)
    {
        // Set indexing runs on every lookup of every cache model;
        // precompute shift/mask instead of dividing when the geometry
        // allows it (validate() enforces power-of-two sets, and every
        // real configuration uses a power-of-two line size too).
        const std::uint32_t sets = geo.numSets();
        fastIndex_ = std::has_single_bit(sets) &&
                     std::has_single_bit(geo.lineBytes);
        if (fastIndex_) {
            lineShift_ = static_cast<unsigned>(
                std::countr_zero(geo.lineBytes));
            setMask_ = sets - 1;
        }
    }

    const CacheGeometry &geometry() const { return geo_; }

    /** Find a resident line without touching LRU state. */
    Line *
    find(Addr a)
    {
        const std::size_t i = slotOf(lineAddr(a));
        return i == kNoSlot ? nullptr : &lines_[i];
    }

    const Line *
    find(Addr a) const
    {
        return const_cast<CacheArray *>(this)->find(a);
    }

    /** Find a resident line and mark it most-recently-used. */
    Line *
    touch(Addr a)
    {
        const std::size_t i = slotOf(lineAddr(a));
        if (i == kNoSlot)
            return nullptr;
        tags_[i].lru = ++lruClock_;
        return &lines_[i];
    }

    /**
     * Insert a line (which must not already be resident), evicting the
     * LRU way of its set if the set is full.
     *
     * @param a line-aligned (or any) address
     * @param[out] victim holds the evicted line when one existed
     * @return reference to the newly resident line
     */
    Line &
    insert(Addr a, std::optional<Line> &victim)
    {
        const Addr la = lineAddr(a);
        cord_assert(slotOf(la) == kNoSlot,
                    "inserting already-resident line ", la);
        // The first free way, else the first least-recently-used one.
        const std::size_t begin = setBegin(la);
        std::size_t slot = begin;
        for (std::size_t i = begin; i < begin + geo_.ways; ++i) {
            if (tags_[i].addr == kInvalidTag) {
                slot = i;
                break;
            }
            if (tags_[i].lru < tags_[slot].lru)
                slot = i;
        }
        if (tags_[slot].addr != kInvalidTag)
            victim.emplace(std::move(lines_[slot]));
        else
            victim.reset();
        tags_[slot] = Tag{la, ++lruClock_};
        lines_[slot] = Line{la, StateT{}};
        return lines_[slot];
    }

    /** Remove a line if resident; @return true when removed. */
    bool
    invalidate(Addr a)
    {
        const std::size_t i = slotOf(lineAddr(a));
        if (i == kNoSlot)
            return false;
        tags_[i].addr = kInvalidTag;
        return true;
    }

    /** Remove the resident @p line (found by find() or touch()). */
    void
    drop(Line &line)
    {
        const auto i = static_cast<std::size_t>(&line - lines_.data());
        cord_assert(i < lines_.size() && tags_[i].addr == line.addr,
                    "dropping a line that is not resident");
        tags_[i].addr = kInvalidTag;
    }

    /** Visit every resident line in way order (the CORD cache walker). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i].addr != kInvalidTag)
                fn(lines_[i]);
        }
    }

    /** Number of currently resident lines. */
    std::size_t
    residentCount() const
    {
        std::size_t n = 0;
        for (const Tag &t : tags_)
            n += t.addr != kInvalidTag ? 1 : 0;
        return n;
    }

  private:
    /** Never a line-aligned address, so it marks a free way. */
    static constexpr Addr kInvalidTag = ~Addr{0};
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /** One way's tag; a free way holds kInvalidTag. */
    struct Tag
    {
        Addr addr = kInvalidTag;
        std::uint64_t lru = 0; //!< larger == more recently used
    };

    /** First way of the set containing @p la. */
    std::size_t
    setBegin(Addr la) const
    {
        const std::size_t set =
            fastIndex_
                ? static_cast<std::size_t>((la >> lineShift_) & setMask_)
                : static_cast<std::size_t>((la / geo_.lineBytes) %
                                           geo_.numSets());
        return set * geo_.ways;
    }

    /** Way index holding line @p la, or kNoSlot. */
    std::size_t
    slotOf(Addr la) const
    {
        const std::size_t begin = setBegin(la);
        for (std::size_t i = begin; i < begin + geo_.ways; ++i) {
            if (tags_[i].addr == la)
                return i;
        }
        return kNoSlot;
    }

    CacheGeometry geo_;
    std::vector<Tag, CacheLineAllocator<Tag>> tags_;
    std::vector<Line> lines_;
    std::uint64_t lruClock_ = 0;
    bool fastIndex_ = false;
    unsigned lineShift_ = 0;
    std::uint64_t setMask_ = 0;
};

} // namespace cord

#endif // CORD_MEM_CACHE_ARRAY_H
