/**
 * @file
 * Residency model for detector access histories.
 *
 * The paper's configurations differ in *where* timestamps may live:
 * only for lines resident in the local L1 (L1Cache), in the local L2
 * (CORD default, L2Cache), or everywhere (Ideal, InfCache).  This class
 * wraps either a finite set-associative tag array or an unbounded flat
 * map behind one interface, invoking a callback whenever a line's
 * history is displaced (which is when CORD folds it into the
 * main-memory timestamps, Section 2.5).
 *
 * The eviction callback is a template parameter (not std::function):
 * getOrInsert/invalidate are instantiated per call-site lambda, so the
 * common hit path inlines completely with no indirect call or callable
 * allocation.  Call sites that need no callback use the one-argument
 * overloads.
 */

#ifndef CORD_CORD_HISTORY_CACHE_H
#define CORD_CORD_HISTORY_CACHE_H

#include <optional>

#include "mem/cache_array.h"
#include "mem/geometry.h"
#include "sim/flat_map.h"
#include "sim/types.h"

namespace cord
{

/**
 * Per-core history storage for one detector.
 *
 * Reference stability: in both modes a returned StateT reference is
 * only valid until the next getOrInsert or invalidate on the same
 * cache.  Finite mode recycles tag-array slots on eviction (a stale
 * reference silently aliases a different line); infinite mode stores
 * state in dense vectors that reallocate on insert and swap on erase.
 * Callers must therefore not hold a returned reference across a
 * subsequent getOrInsert/invalidate (the no-hold-across-insert
 * contract; regression-tested with ASan in
 * tests/history_cache_test.cpp).
 *
 * @tparam StateT per-line detector state
 */
template <typename StateT>
class HistoryCache
{
  public:
    /** Unbounded residency (Ideal / InfCache configurations). */
    HistoryCache() : infinite_(true) {}

    /** Finite residency following @p geo (L1Cache / L2Cache / CORD). */
    explicit HistoryCache(const CacheGeometry &geo)
        : infinite_(false), array_(std::in_place, geo)
    {
        geo.validate();
    }

    bool infinite() const { return infinite_; }

    /** Look up the line's state without allocating. */
    StateT *
    find(Addr a)
    {
        const Addr la = lineAddr(a);
        if (infinite_)
            return map_.find(la);
        auto *line = array_->find(la);
        return line ? &line->state : nullptr;
    }

    /**
     * Look up or allocate the line's state, updating recency.  When a
     * finite set overflows, the LRU victim's state is passed to
     * @p onEvict (signature `void(Addr, StateT &)`) before being
     * discarded.
     *
     * The returned reference is invalidated -- in the aliasing sense
     * described on the class -- by the next getOrInsert or invalidate
     * call; do not hold it across either.
     */
    template <typename EvictFn>
    StateT &
    getOrInsert(Addr a, EvictFn &&onEvict)
    {
        const Addr la = lineAddr(a);
        if (infinite_)
            return map_[la];
        if (auto *line = array_->touch(la))
            return line->state;
        std::optional<typename CacheArray<StateT>::Line> victim;
        auto &fresh = array_->insert(la, victim);
        if (victim)
            onEvict(victim->addr, victim->state);
        return fresh.state;
    }

    /** getOrInsert without an eviction callback. */
    StateT &
    getOrInsert(Addr a)
    {
        return getOrInsert(a, [](Addr, StateT &) {});
    }

    /**
     * Drop the line's history (coherence invalidation), passing the
     * state to @p onEvict first.
     * @return true when the line was resident.
     */
    template <typename EvictFn>
    bool
    invalidate(Addr a, EvictFn &&onEvict)
    {
        const Addr la = lineAddr(a);
        if (infinite_) {
            StateT *st = map_.find(la);
            if (!st)
                return false;
            onEvict(la, *st);
            map_.erase(la);
            return true;
        }
        auto *line = array_->find(la);
        if (!line)
            return false;
        onEvict(la, line->state);
        array_->drop(*line);
        return true;
    }

    /** invalidate without an eviction callback. */
    bool
    invalidate(Addr a)
    {
        return invalidate(a, [](Addr, StateT &) {});
    }

    /**
     * Visit every resident line's state (the CORD cache walker).
     * Infinite mode visits in insertion order (see sim/flat_map.h), so
     * the walk is deterministic across platforms; @p fn must not
     * insert into or erase from this cache.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        if (infinite_) {
            map_.forEach(fn);
        } else {
            array_->forEach([&](auto &line) { fn(line.addr, line.state); });
        }
    }

    std::size_t
    residentCount() const
    {
        return infinite_ ? map_.size() : array_->residentCount();
    }

  private:
    bool infinite_;
    std::optional<CacheArray<StateT>> array_;
    FlatAddrMap<StateT> map_;
};

} // namespace cord

#endif // CORD_CORD_HISTORY_CACHE_H
