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
 * HistoryDirectory pairs a detector's per-core caches with a line ->
 * sharer-set index (mem/line_sharers.h): only caches holding a line
 * answer its snoop (2.2).
 *
 * The eviction callback is a template parameter (not std::function):
 * getOrInsert/invalidate are instantiated per call-site lambda, so the
 * common hit path inlines completely with no indirect call or callable
 * allocation.  Call sites that need no callback use the one-argument
 * overloads.
 */

#ifndef CORD_CORD_HISTORY_CACHE_H
#define CORD_CORD_HISTORY_CACHE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/cache_array.h"
#include "mem/geometry.h"
#include "mem/line_sharers.h"
#include "sim/flat_map.h"
#include "sim/logging.h"
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

    /** find(), marking a finite cache's line most-recently-used as
     *  getOrInsert would (for a caller that reuses the line instead
     *  of looking it up again). */
    StateT *
    touch(Addr a)
    {
        const Addr la = lineAddr(a);
        if (infinite_)
            return map_.find(la);
        auto *line = array_->touch(la);
        return line ? &line->state : nullptr;
    }

    /**
     * Look up or allocate the line's state, updating recency.  When a
     * finite set overflows, the LRU victim's state is passed to
     * @p onEvict (signature `void(Addr, StateT &)`) before being
     * discarded.
     *
     * @p inserted is set when the line was not resident before.
     *
     * The returned reference is invalidated -- in the aliasing sense
     * described on the class -- by the next getOrInsert or invalidate
     * call; do not hold it across either.
     */
    template <typename EvictFn>
    StateT &
    getOrInsert(Addr a, EvictFn &&onEvict, bool &inserted)
    {
        const Addr la = lineAddr(a);
        if (infinite_) {
            const std::size_t before = map_.size();
            StateT &st = map_[la];
            inserted = map_.size() != before;
            return st;
        }
        auto *hit = array_->touch(la);
        inserted = !hit;
        if (hit)
            return hit->state;
        std::optional<typename CacheArray<StateT>::Line> victim;
        auto &fresh = array_->insert(la, victim);
        if (victim)
            onEvict(victim->addr, victim->state);
        return fresh.state;
    }

    template <typename EvictFn>
    StateT &
    getOrInsert(Addr a, EvictFn &&onEvict)
    {
        bool inserted = false;
        return getOrInsert(a, onEvict, inserted);
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

/**
 * One detector's per-core history caches plus the line -> sharer-set
 * index over them: which cores' caches hold the line.  The index
 * changes only in getOrInsert (a fresh insert and its LRU victim) and
 * invalidate, so it always equals a scan of the caches.  Remote
 * sharers are visited in ascending core order.  HistoryCache's
 * reference-stability contract applies unchanged.
 */
template <typename StateT>
class HistoryDirectory
{
  public:
    using Sharers = LineSharers::Set;

    HistoryDirectory(unsigned numCores, bool infinite,
                     const CacheGeometry &geo)
        : caches_(numCores, infinite ? HistoryCache<StateT>()
                                     : HistoryCache<StateT>(geo)),
          sharers_(numCores)
    {
    }

    StateT *find(CoreId core, Addr a) { return caches_[core].find(a); }

    /** HistoryCache::touch on @p core's cache. */
    StateT *touch(CoreId core, Addr a) { return caches_[core].touch(a); }

    /**
     * The cores holding @p a's line.  The set is a view: it follows
     * every later getOrInsert and invalidate, so an access may read it
     * once and pass it to forEachRemote and invalidateRemote.
     */
    Sharers sharers(Addr a) { return sharers_.of(a); }

    /** HistoryCache::getOrInsert on @p core's cache. */
    template <typename EvictFn>
    StateT &
    getOrInsert(CoreId core, Addr a, EvictFn &&onEvict)
    {
        bool inserted = false;
        StateT &st = caches_[core].getOrInsert(
            a,
            [&](Addr victim, StateT &vs) {
                onEvict(victim, vs);
                dropSharer(sharers_.of(victim), core);
            },
            inserted);
        if (inserted)
            sharers_.of(a).insert(core);
        return st;
    }

    /** HistoryCache::invalidate on @p core's cache. */
    template <typename EvictFn>
    void
    invalidate(CoreId core, Addr a, EvictFn &&onEvict)
    {
        if (caches_[core].invalidate(a, onEvict))
            dropSharer(sharers_.of(a), core);
    }

    /** fn(CoreId, StateT &) on every core of @p s, @p a's sharers,
     *  other than @p self; @p fn must not insert into or invalidate
     *  from this directory. */
    template <typename Fn>
    void
    forEachRemote(CoreId self, Addr a, Sharers s, Fn &&fn)
    {
        s.forEachOther(self,
                       [&](CoreId c) { fn(c, *caches_[c].find(a)); });
    }

    /** Drop every other core's copy of the line (a committed write),
     *  passing each to onEvict(CoreId, StateT &) first; @p s is
     *  @p a's sharers. */
    template <typename EvictFn>
    void
    invalidateRemote(CoreId self, Addr a, Sharers s, EvictFn &&onEvict)
    {
        s.forEachOther(self, [&](CoreId c) {
            if (caches_[c].invalidate(
                    a, [&](Addr, StateT &st) { onEvict(c, st); }))
                dropSharer(s, c);
        });
    }

    template <typename Fn>
    void
    forEach(CoreId core, Fn &&fn)
    {
        caches_[core].forEach(fn);
    }

  private:
    static void
    dropSharer(Sharers s, CoreId core)
    {
        cord_assert(s.contains(core), "sharer index lost ", core);
        s.erase(core);
    }

    std::vector<HistoryCache<StateT>> caches_; //!< one per core
    LineSharers sharers_;
};

} // namespace cord

#endif // CORD_CORD_HISTORY_CACHE_H
