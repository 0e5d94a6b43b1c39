/**
 * @file
 * The execution-order log (paper Section 2.7.1).
 *
 * Whenever a thread's logical clock changes, an entry is appended
 * recording the *previous* clock value, the thread ID, and the number
 * of instructions the thread executed while holding that clock value.
 * The wire format is eight bytes per entry (16-bit thread ID, 16-bit
 * clock, 32-bit instruction count); we additionally keep the
 * epoch-extended 64-bit clock so replay can totally order entries
 * across 16-bit wraparounds (the hardware log writer can reconstruct
 * the same by counting wraps per thread).
 */

#ifndef CORD_CORD_ORDER_LOG_H
#define CORD_CORD_ORDER_LOG_H

#include <cstdint>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace cord
{

/** One order-log record: a fragment of one thread's execution. */
struct OrderLogEntry
{
    ThreadId tid = 0;
    Ts64 clock = 0;           //!< logical time of this fragment
    std::uint64_t instrs = 0; //!< instructions executed at this clock

    /** 16-bit wire clock, as the hardware would store it. */
    Ts16 wireClock() const { return static_cast<Ts16>(clock); }
};

/**
 * Per-run execution order log.
 *
 * Entries are appended in commit order and are already sorted by
 * (clock, append order) per thread; replay sorts globally by clock.
 */
class OrderLog
{
  public:
    /** Wire size of one entry (paper: eight bytes). */
    static constexpr std::size_t kEntryWireBytes = 8;

    /**
     * Append a fragment: thread @p tid executed @p instrs instructions
     * while its clock was @p clock.  Zero-instruction fragments (two
     * clock updates with no instruction in between) are elided, which
     * the hardware achieves by overwriting the pending entry.
     */
    void
    append(ThreadId tid, Ts64 clock, std::uint64_t instrs)
    {
        if (instrs == 0)
            return;
        cord_assert(instrs <= 0xffffffffULL,
                    "instruction count overflows the 32-bit wire field; "
                    "the hardware splits such fragments (Section 2.7.1)");
        entries_.push_back(OrderLogEntry{tid, clock, instrs});
    }

    const std::vector<OrderLogEntry> &entries() const { return entries_; }

    std::size_t size() const { return entries_.size(); }

    /** Size of the log in its 8-byte wire format. */
    std::size_t wireBytes() const { return entries_.size() * kEntryWireBytes; }

    void clear() { entries_.clear(); }

  private:
    std::vector<OrderLogEntry> entries_;
};

/**
 * Per-thread helper that tracks the current fragment and emits log
 * entries on clock changes.  Detector implementations own one per
 * thread.
 */
class OrderLogWriter
{
  public:
    OrderLogWriter() = default;

    /** Bind to the log and set the thread's initial clock. */
    void
    begin(OrderLog &log, ThreadId tid, Ts64 initialClock)
    {
        log_ = &log;
        tid_ = tid;
        clock_ = initialClock;
        fragmentStart_ = 0;
    }

    Ts64 clock() const { return clock_; }

    /**
     * The thread's clock changes to @p newClock; the boundary lies at
     * @p instrBoundary retired instructions (instructions before the
     * boundary executed with the old clock).
     */
    void
    changeClock(Ts64 newClock, std::uint64_t instrBoundary)
    {
        cord_assert(newClock > clock_, "clocks only move forward: ",
                    newClock, " vs ", clock_);
        cord_assert(instrBoundary >= fragmentStart_,
                    "instruction boundary went backwards");
        log_->append(tid_, clock_, instrBoundary - fragmentStart_);
        clock_ = newClock;
        fragmentStart_ = instrBoundary;
    }

    /** Flush the final fragment at thread end. */
    void
    finish(std::uint64_t totalInstrs)
    {
        if (totalInstrs > fragmentStart_)
            log_->append(tid_, clock_, totalInstrs - fragmentStart_);
        fragmentStart_ = totalInstrs;
    }

  private:
    OrderLog *log_ = nullptr;
    ThreadId tid_ = 0;
    Ts64 clock_ = 1;
    std::uint64_t fragmentStart_ = 0;
};

} // namespace cord

#endif // CORD_CORD_ORDER_LOG_H
