/**
 * @file
 * Discrete event simulation kernel.
 *
 * All timing-model components (cores, buses, memory controller) schedule
 * callbacks on a single EventQueue.  Events at the same tick execute in
 * (priority, insertion-order) order, which makes every simulation run
 * bit-exactly deterministic for a given seed and configuration.
 *
 * The queue is a binary heap of 24-byte POD nodes (tick, packed
 * priority/seq key, arena slot); each callback is constructed once,
 * in place, in a pooled slot arena with an embedded free list.
 * Scheduling never heap-allocates for hot-path captures (EventCallback
 * stores up to 64 bytes inline), sift operations move only POD nodes,
 * and step() moves the callback out of its slot instead of copying the
 * event.
 */

#ifndef CORD_SIM_EVENT_QUEUE_H
#define CORD_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/logging.h"
#include "sim/types.h"

namespace cord
{

/**
 * Deterministic event scheduler.
 *
 * Priorities break same-tick ties: lower numeric priority runs first.
 * Events with equal tick and priority run in insertion order.
 */
class EventQueue
{
  public:
    /** Event priorities for same-tick ordering, lowest runs first. */
    enum Priority : int
    {
        kPriBusGrant = 0,   //!< bus arbitration decisions
        kPriResponse = 1,   //!< memory/cache responses to cores
        kPriCore = 2,       //!< core wake-ups / issue
        kPriDefault = 3,
        kPriWalker = 4,     //!< background cache walker passes
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Total events executed by step()/run() since construction,
     *  including turns claimed with claimNext(). */
    std::uint64_t executedEvents() const { return executed_; }

    /** Total events scheduled since construction, including turns
     *  claimed with claimNext(). */
    std::uint64_t scheduledEvents() const { return nextSeq_; }

    /**
     * Claim the next turn for an event the caller would schedule at
     * (now(), @p pri) and then wait for: when that event would be the
     * next to run anyway, account for it exactly as schedule() + step()
     * would (one seq, one executed event) and return true, so the
     * caller runs the callback in place instead of round-tripping it
     * through the heap.  Returns false, and changes nothing, when
     * something pending must run first.
     */
    bool
    claimNext(int pri)
    {
        if (!runsNext(pri))
            return false;
        ++nextSeq_;
        ++executed_;
        return true;
    }

    /**
     * Schedule a callable at an absolute tick, constructing it directly
     * inside its arena slot.
     * @param when absolute tick, must be >= now()
     * @param fn any `void()` callable (moved or copied into the slot)
     * @param pri same-tick ordering priority
     */
    template <typename Fn>
    void
    schedule(Tick when, Fn &&fn, int pri = kPriDefault)
    {
        std::uint32_t slot;
        if (freeHead_ != kNoSlot) {
            slot = freeHead_;
            freeHead_ = slots_[slot].nextFree;
        } else {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        slots_[slot].cb.emplace(std::forward<Fn>(fn));
        push(when, pri, slot);
    }

    /** Schedule a callable @p delta ticks from now. */
    template <typename Fn>
    void
    scheduleIn(Tick delta, Fn &&fn, int pri = kPriDefault)
    {
        schedule(now_ + delta, std::forward<Fn>(fn), pri);
    }

    /** True when no events remain. */
    bool empty() const { return nodes_.empty(); }

    /**
     * True when an event scheduled now at priority @p pri would run
     * next: the queue is empty, or its earliest event is at a later
     * tick or has a higher (later-running) priority.  A pending
     * same-tick event of equal priority was inserted earlier, so it
     * runs first.
     */
    bool
    runsNext(int pri) const
    {
        if (nodes_.empty())
            return true;
        const Node &top = nodes_.front();
        return top.when > now_ ||
               (top.key >> 56) > static_cast<std::uint64_t>(pri);
    }

    /** Number of pending events. */
    std::size_t pending() const { return nodes_.size(); }

    /**
     * Run a single event (the earliest one).
     * @return false if the queue was empty.
     */
    bool
    step()
    {
        if (nodes_.empty())
            return false;
        const Node root = nodes_.front();
        cord_assert(root.when >= now_, "event queue time went backwards");
        now_ = root.when;
        popRoot();
        // Move the callback to the stack and release the slot *before*
        // invoking: the callback may schedule() again (growing the
        // arena) and can immediately reuse this slot.
        EventCallback cb = std::move(slots_[root.slot].cb);
        freeSlot(root.slot);
        ++executed_;
        cb();
        return true;
    }

    /**
     * Run events until the queue drains or @p maxTicks simulated time
     * passes (a watchdog against accidental livelock in tests).
     * @return number of events executed
     */
    std::uint64_t
    run(Tick maxTicks = kMaxTick)
    {
        std::uint64_t executed = 0;
        // Saturate: large-but-finite budgets (e.g. a campaign watchdog
        // of `censusTicks * 25 + 1000000`) must clamp to kMaxTick, not
        // wrap around and make the limit land in the past.
        const Tick limit = (maxTicks >= kMaxTick - now_)
                               ? kMaxTick
                               : now_ + maxTicks;
        while (!nodes_.empty() && nodes_.front().when <= limit) {
            step();
            ++executed;
        }
        return executed;
    }

  private:
    /**
     * POD heap node; the callback lives in the slot arena.  Priority
     * and insertion seq are packed into one 64-bit key
     * (pri << 56 | seq) so same-tick ordering is a single integer
     * compare; 2^56 events is out of reach (at 10^9 events/sec that is
     * two years of wall clock), and priorities fit in 8 bits.
     */
    struct Node
    {
        Tick when;
        std::uint64_t key;
        std::uint32_t slot;
    };

    static constexpr std::uint64_t
    packKey(int pri, std::uint64_t seq)
    {
        return (static_cast<std::uint64_t>(pri) << 56) | seq;
    }

    /** Arena slot: a callback plus an embedded free-list link. */
    struct Slot
    {
        EventCallback cb;
        std::uint32_t nextFree = kNoSlot;
    };

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** Enqueue a heap node for an already-filled slot. */
    void
    push(Tick when, int pri, std::uint32_t slot)
    {
        cord_assert(when >= now_, "scheduling event in the past: ", when,
                    " < ", now_);
        cord_assert(pri >= 0 && pri < 256, "priority out of range: ", pri);
        nodes_.push_back(Node{when, packKey(pri, nextSeq_++), slot});
        siftUp(nodes_.size() - 1);
    }

    /** True when @p a runs before @p b: (when, pri, seq) order with the
     *  latter two pre-packed into the key. */
    static bool
    earlier(const Node &a, const Node &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key;
    }

    void
    freeSlot(std::uint32_t s)
    {
        slots_[s].nextFree = freeHead_;
        freeHead_ = s;
    }

    void
    siftUp(std::size_t i)
    {
        const Node n = nodes_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!earlier(n, nodes_[parent]))
                break;
            nodes_[i] = nodes_[parent];
            i = parent;
        }
        nodes_[i] = n;
    }

    void
    popRoot()
    {
        const std::size_t last = nodes_.size() - 1;
        if (last == 0) {
            nodes_.pop_back();
            return;
        }
        const Node n = nodes_[last];
        nodes_.pop_back();
        // Sift the displaced tail node down from the root.
        std::size_t i = 0;
        const std::size_t size = nodes_.size();
        for (;;) {
            const std::size_t left = 2 * i + 1;
            if (left >= size)
                break;
            const std::size_t right = left + 1;
            std::size_t child = left;
            if (right < size && earlier(nodes_[right], nodes_[left]))
                child = right;
            if (!earlier(nodes_[child], n))
                break;
            nodes_[i] = nodes_[child];
            i = child;
        }
        nodes_[i] = n;
    }

    std::vector<Node> nodes_;
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNoSlot;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace cord

#endif // CORD_SIM_EVENT_QUEUE_H
