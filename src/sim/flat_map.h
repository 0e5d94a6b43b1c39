/**
 * @file
 * Open-addressing hash map keyed by Addr, for per-access hot paths.
 *
 * FlatAddrMap keeps a flat power-of-two bucket array (16-byte
 * {key, dense-index} entries probed linearly) pointing into dense
 * key/value vectors, so a hit is typically one cache line of buckets
 * plus one contiguous value access, and inserts amortize to appends.
 *
 * Iteration (forEach) walks the dense arrays in insertion order --
 * *not* hash order -- so walking is deterministic across platforms and
 * standard-library versions (a requirement for bit-exact runs; see
 * docs/PERFORMANCE.md).  erase() swap-removes in the dense arrays, so
 * erasing perturbs that order deterministically.
 *
 * References into the map are invalidated by any insert or erase
 * (dense vectors reallocate and swap); callers follow the same
 * no-hold-across-insert contract as cord/history_cache.h.
 */

#ifndef CORD_SIM_FLAT_MAP_H
#define CORD_SIM_FLAT_MAP_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace cord
{

/**
 * Flat open-addressing Addr -> T map with insertion-order iteration.
 *
 * @tparam T mapped value (default-constructible, movable)
 */
template <typename T>
class FlatAddrMap
{
  public:
    FlatAddrMap() = default;

    std::size_t size() const { return keys_.size(); }
    bool empty() const { return keys_.empty(); }

    /** Pointer to the mapped value, or nullptr when absent. */
    T *
    find(Addr key)
    {
        if (buckets_.empty())
            return nullptr;
        std::size_t i = hash(key) & mask_;
        for (;;) {
            const Bucket &b = buckets_[i];
            if (b.pos == kEmpty)
                return nullptr;
            if (b.key == key)
                return &vals_[b.pos];
            i = (i + 1) & mask_;
        }
    }

    const T *
    find(Addr key) const
    {
        return const_cast<FlatAddrMap *>(this)->find(key);
    }

    /** The mapped value, default-constructed on first access. */
    T &
    operator[](Addr key)
    {
        if ((keys_.size() + 1) * 10 >= buckets_.size() * 7)
            grow();
        std::size_t i = hash(key) & mask_;
        for (;;) {
            Bucket &b = buckets_[i];
            if (b.pos == kEmpty) {
                b.key = key;
                b.pos = static_cast<std::uint32_t>(keys_.size());
                keys_.push_back(key);
                vals_.emplace_back();
                return vals_.back();
            }
            if (b.key == key)
                return vals_[b.pos];
            i = (i + 1) & mask_;
        }
    }

    /**
     * Remove @p key.  The last-inserted element is swapped into the
     * erased element's dense position.
     * @return true when the key was present.
     */
    bool
    erase(Addr key)
    {
        if (buckets_.empty())
            return false;
        std::size_t i = hash(key) & mask_;
        for (;;) {
            const Bucket &b = buckets_[i];
            if (b.pos == kEmpty)
                return false;
            if (b.key == key)
                break;
            i = (i + 1) & mask_;
        }
        const std::uint32_t pos = buckets_[i].pos;
        const std::uint32_t lastPos =
            static_cast<std::uint32_t>(keys_.size() - 1);
        if (pos != lastPos) {
            keys_[pos] = keys_[lastPos];
            vals_[pos] = std::move(vals_[lastPos]);
            bucketOf(keys_[pos]).pos = pos;
        }
        keys_.pop_back();
        vals_.pop_back();
        shiftDelete(i);
        return true;
    }

    /** Visit every element in (erase-perturbed) insertion order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t p = 0; p < keys_.size(); ++p)
            fn(keys_[p], vals_[p]);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t p = 0; p < keys_.size(); ++p)
            fn(keys_[p], vals_[p]);
    }

    void
    clear()
    {
        buckets_.clear();
        keys_.clear();
        vals_.clear();
        mask_ = 0;
    }

  private:
    struct Bucket
    {
        Addr key = 0;
        std::uint32_t pos = kEmpty;
    };

    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    /** splitmix64 finalizer: cheap, and strong enough that linear
     *  probing behaves on the page/line-aligned keys we store. */
    static std::size_t
    hash(Addr key)
    {
        std::uint64_t x = static_cast<std::uint64_t>(key);
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }

    /** Bucket currently holding @p key (which must be present). */
    Bucket &
    bucketOf(Addr key)
    {
        std::size_t i = hash(key) & mask_;
        while (buckets_[i].key != key || buckets_[i].pos == kEmpty)
            i = (i + 1) & mask_;
        return buckets_[i];
    }

    /** Backward-shift deletion at bucket @p i (linear probing). */
    void
    shiftDelete(std::size_t i)
    {
        for (;;) {
            buckets_[i].pos = kEmpty;
            std::size_t j = i;
            for (;;) {
                j = (j + 1) & mask_;
                if (buckets_[j].pos == kEmpty)
                    return;
                // An element may only move back to i if its home slot
                // is cyclically outside (i, j]; otherwise probing for
                // it would stop early at i.
                const std::size_t home = hash(buckets_[j].key) & mask_;
                const bool stays = i <= j ? (home > i && home <= j)
                                          : (home > i || home <= j);
                if (!stays)
                    break;
            }
            buckets_[i] = buckets_[j];
            i = j;
        }
    }

    void
    grow()
    {
        const std::size_t newCap =
            buckets_.empty() ? 64 : buckets_.size() * 2;
        buckets_.assign(newCap, Bucket{});
        mask_ = newCap - 1;
        for (std::size_t p = 0; p < keys_.size(); ++p) {
            std::size_t i = hash(keys_[p]) & mask_;
            while (buckets_[i].pos != kEmpty)
                i = (i + 1) & mask_;
            buckets_[i].key = keys_[p];
            buckets_[i].pos = static_cast<std::uint32_t>(p);
        }
    }

    std::vector<Bucket> buckets_;
    std::vector<Addr> keys_;
    std::vector<T> vals_;
    std::size_t mask_ = 0;
};

} // namespace cord

#endif // CORD_SIM_FLAT_MAP_H
