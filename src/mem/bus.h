/**
 * @file
 * Analytic shared-bus channels with FIFO arbitration.
 *
 * The paper's CMP (Section 3.1) has a 128-bit on-chip data bus at 1 GHz
 * and an address/timestamp bus at half the data bus frequency
 * (Section 4.1).  We model each channel as a resource that is granted in
 * request order: a requester at time `now` is granted at
 * max(now, freeAt) and occupies the channel for a fixed number of
 * processor cycles.  This captures exactly the contention channel the
 * paper identifies as the source of CORD's overhead (race check requests
 * and memory-timestamp updates compete with misses for the
 * address/timestamp bus) without simulating per-phase bus events.
 */

#ifndef CORD_MEM_BUS_H
#define CORD_MEM_BUS_H

#include <cstdint>
#include <string>

#include "obs/tracer.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cord
{

/** One shared bus channel with in-order grant. */
class BusChannel
{
  public:
    /**
     * @param occupancy processor cycles one transaction holds the channel
     * @param busId trace-track identity (0 = addr/ts, 1 = data, 2 = mem)
     */
    explicit BusChannel(Tick occupancy, CoreId busId = 0)
        : occupancy_(occupancy), busId_(busId)
    {
    }

    /**
     * Request the channel at time @p now.
     * @return the grant time (transaction begins; it completes at
     *         grant + occupancy()).
     */
    Tick
    acquire(Tick now)
    {
        const Tick grant = now > freeAt_ ? now : freeAt_;
        freeAt_ = grant + occupancy_;
        busyCycles_ += occupancy_;
        ++transactions_;
        waitCycles_ += grant - now;
        if (EventTracer *t = EventTracer::active())
            t->emit(TraceEventKind::BusTransaction, grant,
                    kInvalidThread, busId_, grant - now, occupancy_);
        return grant;
    }

    /** Export utilization counters under "@p prefix.". */
    void
    exportStats(StatRegistry &reg, const std::string &prefix) const
    {
        reg.set(prefix + ".transactions", transactions_);
        reg.set(prefix + ".busyCycles", busyCycles_);
        reg.set(prefix + ".waitCycles", waitCycles_);
    }

    /** Cycles a single transaction occupies the channel. */
    Tick occupancy() const { return occupancy_; }

    /** Time at which the channel next becomes free. */
    Tick freeAt() const { return freeAt_; }

    /** Total cycles the channel has been occupied (utilization stat). */
    Tick busyCycles() const { return busyCycles_; }

    /** Total transactions granted. */
    std::uint64_t transactions() const { return transactions_; }

    /** Total cycles requesters spent waiting for grants. */
    Tick waitCycles() const { return waitCycles_; }

    /** Reset to idle (for reuse across runs). */
    void
    reset()
    {
        freeAt_ = 0;
        busyCycles_ = 0;
        waitCycles_ = 0;
        transactions_ = 0;
    }

  private:
    Tick occupancy_;
    CoreId busId_;
    Tick freeAt_ = 0;
    Tick busyCycles_ = 0;
    Tick waitCycles_ = 0;
    std::uint64_t transactions_ = 0;
};

} // namespace cord

#endif // CORD_MEM_BUS_H
