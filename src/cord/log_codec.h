/**
 * @file
 * Wire format codec for the execution-order log (paper Section 2.7.1).
 *
 * Hardware appends eight bytes per entry: a 16-bit thread ID, the
 * 16-bit previous clock value, and a 32-bit instruction count.  The
 * decoder reconstructs the epoch-extended 64-bit clocks that replay
 * needs by counting 16-bit wraparounds per thread -- valid because a
 * thread's logged clocks are strictly increasing and CORD's sliding
 * window (with update stalling, Section 2.7.5) bounds every clock jump
 * below 2^15.  The encoder verifies that invariant.
 */

#ifndef CORD_CORD_LOG_CODEC_H
#define CORD_CORD_LOG_CODEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "cord/order_log.h"

namespace cord
{

/// @{ @name Varint primitives
/// LEB128 base-128 varints, shared by every variable-length wire
/// format in the code base (the schedule log in src/sched uses them;
/// the order log itself stays fixed-width, matching the hardware).

/** Append @p v to @p out as a little-endian base-128 varint. */
void putVarint(std::vector<std::uint8_t> &out, std::uint64_t v);

/**
 * Decode one varint from @p in starting at @p off; advances @p off
 * past the encoded bytes.
 * @return false on truncated input or an encoding longer than 10
 *         bytes (64 bits); @p off and @p v are unspecified then.
 */
bool getVarint(const std::vector<std::uint8_t> &in, std::size_t &off,
               std::uint64_t &v);

/// @}

/** Encode the log into its 8-byte-per-entry wire format. */
std::vector<std::uint8_t> encodeOrderLog(const OrderLog &log);

/**
 * Result of a wire decode: whole entries are decoded best-effort and
 * every structural problem is reported instead of aborting, so a
 * possibly-corrupt log can still be analyzed offline.
 */
struct LenientDecode
{
    OrderLog log;
    std::vector<std::string> problems; //!< empty = structurally clean
    std::size_t trailingBytes = 0;     //!< bytes past the last entry
};

/**
 * Decode a wire-format log, reconstructing 64-bit clocks, without
 * aborting on malformed input.  Trailing partial entries and
 * zero-instruction entries are recorded as problems; zero-instruction
 * entries are dropped from the log (the recorder never emits them) but
 * still advance clock reconstruction.
 * @param initialClock the clock threads start with (CORD uses 1)
 */
LenientDecode decodeOrderLogLenient(const std::vector<std::uint8_t> &bytes,
                                    Ts64 initialClock = 1);

/**
 * True when the log satisfies the bounded-jump invariant the wire
 * format requires (per-thread clock deltas below the half-window).
 */
bool isWireEncodable(const OrderLog &log);

/** Encode @p log and write the wire bytes to @p path (fatal on I/O error). */
void saveOrderLog(const OrderLog &log, const std::string &path);

/** Read raw wire bytes from @p path (fatal on I/O error). */
std::vector<std::uint8_t> loadLogBytes(const std::string &path);

} // namespace cord

#endif // CORD_CORD_LOG_CODEC_H
