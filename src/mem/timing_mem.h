/**
 * @file
 * Timing model of the CMP's private-cache hierarchy with bus-based MESI
 * snooping coherence.
 *
 * This model answers one question for each memory operation: at which
 * tick does it complete?  Data values are kept functionally elsewhere
 * (runtime/value_store.h); the caches here track only tags and MESI
 * state.  Bus contention is modeled analytically through BusChannel
 * (mem/bus.h), which is the channel through which CORD's race-check and
 * memory-timestamp traffic perturbs performance (paper Section 4.1).
 */

#ifndef CORD_MEM_TIMING_MEM_H
#define CORD_MEM_TIMING_MEM_H

#include <cstdint>
#include <span>
#include <vector>

#include "mem/bus.h"
#include "mem/cache_array.h"
#include "mem/line_sharers.h"
#include "mem/machine_config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cord
{

/** MESI coherence states. */
enum class Mesi : std::uint8_t { Invalid, Shared, Exclusive, Modified };

/** How a timing access was satisfied (for stats and tests). */
enum class ServiceSource : std::uint8_t
{
    L1Hit,
    L2Hit,
    CacheToCache,
    Memory,
};

/** Result of a timing access. */
struct TimingResult
{
    Tick completion = 0;
    ServiceSource source = ServiceSource::L1Hit;
    bool usedAddrBus = false; //!< a bus transaction was required
};

/**
 * Private L1+L2 per core with snooping MESI coherence across L2s.
 *
 * Coherence state is held at the L2; the L1 is an inclusive latency
 * filter.  All latencies and bus occupancies come from MachineConfig.
 */
class TimingMemSystem
{
  public:
    explicit TimingMemSystem(const MachineConfig &cfg);

    /**
     * Perform one word access and return its completion time.
     * @param core issuing core
     * @param addr byte address (word-aligned accesses assumed)
     * @param isWrite store or successful RMW
     * @param now issue tick
     */
    TimingResult access(CoreId core, Addr addr, bool isWrite, Tick now);

    /**
     * Charge one CORD race-check request (no data transfer -- paper
     * Section 2.7.2).  Snooping: a single broadcast transaction on the
     * shared address/timestamp bus.  Directory: a request on @p addr's
     * home-slice channel, which the directory answers with one
     * point-to-point probe per core in @p sharers, each on that core's
     * own slice channel -- the cost scales with the sharer set, never
     * with the core count.
     * @return bus cycles consumed by the charge (overhead attribution)
     */
    Tick chargeRaceCheck(Tick now, Addr addr,
                         std::span<const CoreId> sharers = {});

    /**
     * Charge one memory-timestamp update (paper Section 2.5): a
     * broadcast on the address/timestamp bus under snooping, a
     * directed update of @p addr's home slice bank under a directory.
     * @return bus cycles consumed by the charge (overhead attribution)
     */
    Tick chargeMemTsBroadcast(Tick now, Addr addr);

    /** Address/timestamp bus (exposed for stats/tests). */
    const BusChannel &addrBus() const { return addrBus_; }

    /** Directory-slice channel homing @p addr (Directory mode only). */
    const BusChannel &
    sliceBus(Addr addr) const
    {
        return sliceBus_[homeSlice(addr)];
    }

    /** Directory slice that homes @p addr (line-interleaved). */
    unsigned
    homeSlice(Addr addr) const
    {
        return static_cast<unsigned>((lineAddr(addr) / kLineBytes) %
                                     cfg_.numCores);
    }

    /** On-chip data bus. */
    const BusChannel &dataBus() const { return dataBus_; }

    /** Off-chip memory bus. */
    const BusChannel &memBus() const { return memBus_; }

    /** Per-source access counts. */
    std::uint64_t
    serviceCount(ServiceSource s) const
    {
        return serviceCounts_[static_cast<unsigned>(s)];
    }

    /** Export bus utilization and service-source counters ("bus.*",
     *  "service.*") into @p reg for metric snapshots (obs/metrics.h). */
    void exportStats(StatRegistry &reg) const;

    const MachineConfig &config() const { return cfg_; }

    /** MESI state of @p addr's line in @p core's L2 (Invalid when not
     *  resident); for tests. */
    Mesi
    l2State(CoreId core, Addr addr) const
    {
        const auto *l = l2_[core].find(addr);
        return l ? l->state.mesi : Mesi::Invalid;
    }

    /** True when @p core's L1 holds @p addr's line; for tests. */
    bool
    inL1(CoreId core, Addr addr) const
    {
        return l1_[core].find(addr) != nullptr;
    }

    /** True when @p core is in @p addr's L2 holder set; for tests. */
    bool
    holds(CoreId core, Addr addr) const
    {
        return holders_.contains(addr, core);
    }

  private:
    struct L2State
    {
        Mesi mesi = Mesi::Invalid;
    };

    /** Evict handling: write back dirty victims, maintain inclusion
     *  and the holder set. */
    void handleL2Victim(CoreId core,
                        const CacheArray<L2State>::Line &victim, Tick now);

    /** Channel carrying @p line's coherence/check requests: the shared
     *  address/timestamp bus under snooping, the line's home-slice
     *  channel under a directory (requests to different slices never
     *  contend -- the property behind sub-linear CORD overhead). */
    BusChannel &requestChannel(Addr line);

    MachineConfig cfg_;
    BusChannel addrBus_;
    BusChannel dataBus_;
    BusChannel memBus_;
    /** One request channel per directory slice (Directory mode only;
     *  empty under snooping). */
    std::vector<BusChannel> sliceBus_;
    std::vector<CacheArray<L2State>> l2_;
    std::vector<CacheArray<char>> l1_;
    /** Per line, the cores whose L2 holds it (every resident L2 line
     *  is valid), so a miss or an upgrade finds the remote copies
     *  without scanning every L2. */
    LineSharers holders_;
    std::uint64_t serviceCounts_[4] = {0, 0, 0, 0};
};

} // namespace cord

#endif // CORD_MEM_TIMING_MEM_H
