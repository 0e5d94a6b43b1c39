/**
 * @file
 * The paper's timing constants (Section 3.1) as constexpr values.
 *
 * MachineConfig's member initializers reference these constants, so a
 * change to the simulated timing model shows up here first and the
 * static_assert below re-checks it at compile time.
 *
 * Cores are coupled at the issue tick: TimingMemory::access invalidates
 * remote L2 copies and mutates the shared bus free-time synchronously
 * (mem/timing_mem.cpp; the paper's atomic-bus abstraction).  The
 * earliest a commit on one core can affect another core is therefore
 * the same tick, which is why one simulation runs on one host thread
 * (docs/PERFORMANCE.md §6).
 */

#ifndef CORD_MEM_TIMING_CONSTANTS_H
#define CORD_MEM_TIMING_CONSTANTS_H

#include "sim/types.h"

namespace cord
{

// Paper Section 3.1 timing constants (processor cycles at 4 GHz).
constexpr Tick kL1HitLatency = 1;
constexpr Tick kL2HitLatency = 8;
constexpr Tick kCacheToCacheLatency = 20;
constexpr Tick kMemoryLatency = 600;
constexpr Tick kUpgradeLatency = 8;
constexpr Tick kAddrBusOccupancy = 8;  // one addr-bus cycle at 500 MHz
constexpr Tick kDataBusOccupancy = 16; // four 128-bit beats at 1 GHz
constexpr Tick kOffChipBusOccupancy = 80;
constexpr Tick kDirectoryLatency = 16;
constexpr Tick kForwardLatency = 30;

static_assert(kL1HitLatency <= kL2HitLatency &&
                  kL2HitLatency <= kCacheToCacheLatency &&
                  kCacheToCacheLatency <= kMemoryLatency,
              "memory hierarchy latencies are expected to be "
              "monotone: an L1 hit is the cheapest response path");

} // namespace cord

#endif // CORD_MEM_TIMING_CONSTANTS_H
