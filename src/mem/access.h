/**
 * @file
 * Committed memory access events.
 *
 * The timing system commits memory operations in a global total order
 * (by tick, with deterministic tie-breaking) and publishes one MemEvent
 * per committed access.  All detectors -- CORD, the vector-clock
 * variants, and the Ideal happens-before detector -- consume this single
 * stream, so accuracy comparisons are made on identical interleavings
 * (DESIGN.md Section 5.1).
 */

#ifndef CORD_MEM_ACCESS_H
#define CORD_MEM_ACCESS_H

#include <cstdint>

#include "sim/types.h"

namespace cord
{

/** Kind of a committed memory access. */
enum class AccessKind : std::uint8_t
{
    DataRead,
    DataWrite,
    SyncRead,  //!< labelled synchronization load (paper Section 2.7.3)
    SyncWrite, //!< labelled synchronization store
};

/** True for the two write kinds. */
constexpr bool
isWriteKind(AccessKind k)
{
    return k == AccessKind::DataWrite || k == AccessKind::SyncWrite;
}

/** True for the two synchronization kinds. */
constexpr bool
isSyncKind(AccessKind k)
{
    return k == AccessKind::SyncRead || k == AccessKind::SyncWrite;
}

/**
 * One committed word access.  A successful atomic read-modify-write is
 * published as a SyncRead immediately followed by a SyncWrite with the
 * same tick and instruction count.  Fields are ordered by size, so the
 * event packs into 40 bytes: every detector batch, trace and parked
 * SuffixGate log holds these by the thousand.
 */
struct MemEvent
{
    Tick tick = 0;
    Addr addr = 0;                //!< word-aligned address
    std::uint64_t instrCount = 0; //!< thread instructions retired so far
    std::uint64_t value = 0;      //!< value read / value written
    ThreadId tid = 0;
    CoreId core = 0;
    AccessKind kind = AccessKind::DataRead;

    bool isWrite() const { return isWriteKind(kind); }
    bool isSync() const { return isSyncKind(kind); }
};
static_assert(sizeof(MemEvent) == 40, "MemEvent must stay packed");

} // namespace cord

#endif // CORD_MEM_ACCESS_H
