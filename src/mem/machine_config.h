/**
 * @file
 * Machine configuration mirroring the paper's experimental setup
 * (Section 3.1): a 4-processor CMP with 4-issue 4 GHz cores, private
 * 8KB L1 and 32KB L2 caches (reduced sizes to match reduced inputs),
 * a 128-bit 1 GHz on-chip data bus, an address/timestamp bus at half
 * the data bus frequency, 600-cycle round-trip memory latency and
 * 20-cycle L2-to-L2 cache-to-cache latency.
 */

#ifndef CORD_MEM_MACHINE_CONFIG_H
#define CORD_MEM_MACHINE_CONFIG_H

#include <cstdint>

#include "mem/geometry.h"
#include "mem/timing_constants.h"
#include "sim/types.h"

namespace cord
{

/**
 * Coherence organization.  The paper evaluates bus-based snooping
 * (CMPs/SMPs); it notes a "straightforward extension of this protocol
 * to a directory-based system is possible" (Section 2.5) -- we provide
 * that extension: misses indirect through a directory at the memory
 * controller, invalidations and race checks are directed at the exact
 * sharer set instead of broadcast.
 */
enum class CoherenceKind : std::uint8_t
{
    Snooping,
    Directory,
};

/** Timing and topology parameters for the simulated CMP. */
struct MachineConfig
{
    unsigned numCores = kDefaultNumCores;

    CoherenceKind coherence = CoherenceKind::Snooping;

    /** Directory lookup latency (Directory mode only). */
    Tick directoryLatency = kDirectoryLatency;

    /** Three-hop forward latency owner->requester (Directory mode). */
    Tick forwardLatency = kForwardLatency;

    CacheGeometry l1 = CacheGeometry::paperL1();
    CacheGeometry l2 = CacheGeometry::paperL2();

    /** Core issue width: compute blocks retire this many instrs/cycle. */
    unsigned issueWidth = 4;

    /** L1 hit latency (processor cycles). */
    Tick l1HitLatency = kL1HitLatency;

    /** Private L2 hit latency. */
    Tick l2HitLatency = kL2HitLatency;

    /** L2-to-L2 cache-to-cache round trip (paper: 20 cycles). */
    Tick cacheToCacheLatency = kCacheToCacheLatency;

    /** Main memory round trip (paper: 600 processor cycles). */
    Tick memoryLatency = kMemoryLatency;

    /**
     * Address/timestamp bus occupancy per transaction: one bus cycle at
     * half the 1 GHz data bus frequency = 8 processor cycles at 4 GHz.
     */
    Tick addrBusOccupancy = kAddrBusOccupancy;

    /**
     * Data bus occupancy per 64-byte line: four 128-bit beats at 1 GHz
     * = 16 processor cycles.
     */
    Tick dataBusOccupancy = kDataBusOccupancy;

    /**
     * Off-chip bus occupancy per line: 64 bytes over a quad-pumped
     * 64-bit 200 MHz bus ~ 80 processor cycles.
     */
    Tick offChipBusOccupancy = kOffChipBusOccupancy;

    /** Latency of an ownership upgrade (S->M) bus transaction. */
    Tick upgradeLatency = kUpgradeLatency;

    /**
     * Multiplier applied to workload compute blocks.  The synthetic
     * workloads are far more memory- and synchronization-dense per
     * simulated cycle than the real SPLASH-2 binaries (we do not model
     * their arithmetic); performance-overhead runs (Figure 11) scale
     * compute up to restore a realistic compute-to-synchronization
     * ratio.  Detection experiments use 1 (interleaving preserved).
     */
    unsigned computeScale = 1;

    /**
     * When nonzero, each thread is migrated to the next core every
     * this-many retired instructions (exercises the paper's
     * Section 2.7.4 thread-migration handling end to end).
     */
    std::uint64_t migrationPeriodInstrs = 0;
};

} // namespace cord

#endif // CORD_MEM_MACHINE_CONFIG_H
