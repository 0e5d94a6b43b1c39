/**
 * @file
 * Discrete event simulation kernel.
 *
 * The engine (cpu/simulation.h) schedules exactly four kinds of event,
 * each naming the thread or core it acts on: a core issue step, a
 * memory-op completion, a compute completion and a gate retry.  An
 * event is therefore a POD target (kind, index) instead of a callable:
 * the queue is a binary heap of 24-byte nodes (tick, packed
 * priority/seq key, target), pop() hands back the earliest target, and
 * the engine dispatches it with one switch.  Events at the same tick
 * run in (priority, insertion-order) order, which makes every
 * simulation run bit-exactly deterministic for a given seed and
 * configuration.  Scheduling never allocates once the heap has grown
 * to its steady-state size.
 */

#ifndef CORD_SIM_EVENT_QUEUE_H
#define CORD_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace cord
{

/** What an event does when it runs. */
enum class EventKind : std::uint8_t
{
    CoreStep,    //!< issue step of core `index`
    MemOpDone,   //!< thread `index`'s memory op completes
    ComputeDone, //!< thread `index`'s compute chunk completes
    GateRetry,   //!< gate-blocked thread `index` may try again
};

/** The event a heap node carries: its kind and the thread or core it
 *  acts on. */
struct EventTarget
{
    EventKind kind;
    std::uint32_t index;
};

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
        kPriResponse = 1, //!< memory/compute completions
        kPriCore = 2,     //!< core issue steps
        kPriDefault = 3,  //!< gate retries
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Total events popped since construction, including turns claimed
     *  with claimNext(). */
    std::uint64_t executedEvents() const { return executed_; }

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /**
     * Schedule @p target at absolute tick @p when (>= now()).
     * @param pri same-tick ordering priority, in [0, 256)
     */
    void
    schedule(Tick when, EventTarget target, int pri = kPriDefault)
    {
        cord_assert(when >= now_, "scheduling event in the past: ", when,
                    " < ", now_);
        cord_assert(pri >= 0 && pri < 256, "priority out of range: ", pri);
        push(Node{when, packKey(pri, nextSeq_++), target});
    }

    /** Schedule @p target @p delta ticks from now. */
    void
    scheduleIn(Tick delta, EventTarget target, int pri = kPriDefault)
    {
        schedule(now_ + delta, target, pri);
    }

    /**
     * Remove the earliest event, advance now() to its tick and count it
     * as executed.  The queue must not be empty.
     */
    EventTarget
    pop()
    {
        cord_assert(size_ != 0, "pop from an empty event queue");
        const Node &root = nodes_[0];
        cord_assert(root.when >= now_, "event queue time went backwards");
        now_ = root.when;
        const EventTarget target = root.target;
        popRoot();
        ++executed_;
        return target;
    }

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
        if (size_ == 0)
            return true;
        const Node &top = nodes_[0];
        return top.when > now_ ||
               (top.key >> 56) > static_cast<std::uint64_t>(pri);
    }

    /**
     * Claim the next turn for an event the caller would schedule at
     * (now(), @p pri) and then wait for: when that event would be the
     * next to run anyway, account for it exactly as schedule() + pop()
     * would (one seq, one executed event) and return true, so the
     * caller runs it in place instead of round-tripping it through the
     * heap.  Returns false, and changes nothing, when something pending
     * must run first.
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

  private:
    /**
     * POD heap node.  Priority and insertion seq are packed into one
     * 64-bit key (pri << 56 | seq) so same-tick ordering is a single
     * integer compare; 2^56 events is out of reach (at 10^9 events/sec
     * that is two years of wall clock), and priorities fit in 8 bits.
     */
    struct Node
    {
        Tick when;
        std::uint64_t key;
        EventTarget target;
    };

    static constexpr std::uint64_t
    packKey(int pri, std::uint64_t seq)
    {
        return (static_cast<std::uint64_t>(pri) << 56) | seq;
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

    /**
     * Sift a hole up from the end and write @p n once, into the hole's
     * final position.  @p n stays in registers: storing it first and
     * reading it back as a whole node would stall on store forwarding.
     * nodes_ only grows; size_ counts the live prefix.
     */
    void
    push(const Node n)
    {
        if (size_ == nodes_.size())
            nodes_.resize(nodes_.empty() ? 64 : 2 * nodes_.size());
        std::size_t i = size_++;
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!earlier(n, nodes_[parent]))
                break;
            nodes_[i] = nodes_[parent];
            i = parent;
        }
        nodes_[i] = n;
    }

    /** Drop the root: sift the tail node down from the top. */
    void
    popRoot()
    {
        const std::size_t size = --size_;
        if (size == 0)
            return;
        const Node n = nodes_[size];
        std::size_t i = 0;
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

    std::vector<Node> nodes_; //!< heap in [0, size_), spare capacity past
    std::size_t size_ = 0;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace cord

#endif // CORD_SIM_EVENT_QUEUE_H
