/**
 * @file
 * Fundamental simulator-wide types and constants.
 *
 * The CORD reproduction models a small-scale CMP (paper Section 3.1):
 * 4-issue cores at 4 GHz, private L1/L2 caches with 64-byte lines,
 * a 128-bit on-chip data bus at 1 GHz and a half-speed address/timestamp
 * bus, and a 600-cycle round-trip main memory.  All latencies in this
 * code base are expressed in processor (4 GHz) cycles, i.e. in Ticks.
 */

#ifndef CORD_SIM_TYPES_H
#define CORD_SIM_TYPES_H

#include <cstdint>
#include <limits>

namespace cord
{

/** Simulated time, in processor clock cycles. */
using Tick = std::uint64_t;

/** Sentinel for "never" / unscheduled. */
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** Physical byte address in the simulated machine. */
using Addr = std::uint64_t;

/** Identifier of a hardware processor (core). */
using CoreId = std::uint16_t;

/** Identifier of a software thread (paper: 16-bit thread IDs). */
using ThreadId = std::uint16_t;

constexpr ThreadId kInvalidThread = 0xffff;

/**
 * Default machine geometry (paper Section 3.1: a 4-processor CMP
 * running one thread per core).  Single source of truth: every
 * configuration default -- MachineConfig::numCores,
 * CordConfig/VcConfig geometry, WorkloadParams::numThreads -- derives
 * from these two constants, and harness/runner.cpp asserts at run
 * setup that detector geometry agrees with the machine (a mismatched
 * config used to silently under-size vector clocks).
 */
constexpr unsigned kDefaultNumCores = 4;
constexpr unsigned kDefaultNumThreads = 4;

/** Largest core and thread counts a run takes (`--cores` and
 *  `--threads` of cordsim and cordlint); a recorded trace never names a
 *  larger core or thread ID, so its loader refuses one. */
constexpr unsigned kMaxCores = 1024;
constexpr unsigned kMaxThreads = 1024;

/** Scalar logical timestamp as stored in cache lines (paper: 16 bits). */
using Ts16 = std::uint16_t;

/** Epoch-extended logical time used internally (see DESIGN.md §5.3). */
using Ts64 = std::uint64_t;

/** Data word granularity for access bits and conflicts (paper: per word). */
constexpr unsigned kWordBytes = 4;

/** Cache line size used throughout the paper's evaluation. */
constexpr unsigned kLineBytes = 64;

/** Words per cache line (per-word access bits: 16 per line). */
constexpr unsigned kWordsPerLine = kLineBytes / kWordBytes;

/** Extract the line-aligned address. */
constexpr Addr
lineAddr(Addr a)
{
    return a & ~static_cast<Addr>(kLineBytes - 1);
}

/** Index of the word within its cache line. */
constexpr unsigned
wordInLine(Addr a)
{
    return static_cast<unsigned>((a >> 2) & (kWordsPerLine - 1));
}

/** Word-aligned address. */
constexpr Addr
wordAddr(Addr a)
{
    return a & ~static_cast<Addr>(kWordBytes - 1);
}

} // namespace cord

#endif // CORD_SIM_TYPES_H
