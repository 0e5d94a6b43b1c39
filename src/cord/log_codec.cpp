#include "cord/log_codec.h"

#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "cord/clock.h"
#include "sim/logging.h"
#include "sim/read_file.h"

namespace cord
{

namespace
{

void
put16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
put32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    put16(out, static_cast<std::uint16_t>(v & 0xffff));
    put16(out, static_cast<std::uint16_t>(v >> 16));
}

std::uint16_t
get16(const std::vector<std::uint8_t> &in, std::size_t off)
{
    return static_cast<std::uint16_t>(in[off] |
                                      (static_cast<unsigned>(in[off + 1])
                                       << 8));
}

std::uint32_t
get32(const std::vector<std::uint8_t> &in, std::size_t off)
{
    return static_cast<std::uint32_t>(get16(in, off)) |
           (static_cast<std::uint32_t>(get16(in, off + 2)) << 16);
}

} // namespace

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

bool
getVarint(const std::vector<std::uint8_t> &in, std::size_t &off,
          std::uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        if (off >= in.size())
            return false; // truncated
        const std::uint8_t byte = in[off++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return true;
    }
    return false; // longer than 10 bytes: not a 64-bit value
}

bool
isWireEncodable(const OrderLog &log)
{
    std::unordered_map<ThreadId, Ts64> last;
    for (const OrderLogEntry &e : log.entries()) {
        auto [it, first] = last.try_emplace(e.tid, e.clock);
        if (!first) {
            cord_assert(e.clock >= it->second,
                        "per-thread log clocks must not decrease");
            if (e.clock - it->second >= kClockWindow)
                return false;
            it->second = e.clock;
        }
    }
    return true;
}

std::vector<std::uint8_t>
encodeOrderLog(const OrderLog &log)
{
    cord_assert(isWireEncodable(log),
                "order log violates the bounded-jump invariant; real "
                "hardware stalls clock updates to prevent this "
                "(Section 2.7.5)");
    std::vector<std::uint8_t> out;
    out.reserve(log.size() * OrderLog::kEntryWireBytes);
    for (const OrderLogEntry &e : log.entries()) {
        put16(out, e.tid);
        put16(out, e.wireClock());
        cord_assert(e.instrs <= 0xffffffffULL,
                    "instruction count exceeds the 32-bit wire field");
        put32(out, static_cast<std::uint32_t>(e.instrs));
    }
    return out;
}

OrderLog
decodeOrderLog(const std::vector<std::uint8_t> &bytes, Ts64 initialClock)
{
    cord_assert(bytes.size() % OrderLog::kEntryWireBytes == 0,
                "wire log size must be a multiple of 8 bytes");
    OrderLog log;
    // Last reconstructed clock per thread; threads start at the
    // initial clock, so the first entry reconstructs relative to it.
    std::unordered_map<ThreadId, Ts64> last;
    for (std::size_t off = 0; off < bytes.size();
         off += OrderLog::kEntryWireBytes) {
        const ThreadId tid = static_cast<ThreadId>(get16(bytes, off));
        const Ts16 wire = get16(bytes, off + 2);
        const std::uint32_t instrs = get32(bytes, off + 4);

        auto [it, first] = last.try_emplace(tid, initialClock);
        const Ts64 prev = it->second;
        // The true clock is the smallest value >= prev whose low 16
        // bits equal the wire clock (clocks never decrease, and jumps
        // are bounded below the window).
        Ts64 clock = (prev & ~static_cast<Ts64>(0xffff)) | wire;
        if (clock < prev)
            clock += 1ULL << 16;
        it->second = clock;
        log.append(tid, clock, instrs);
    }
    return log;
}

LenientDecode
decodeOrderLogLenient(const std::vector<std::uint8_t> &bytes,
                      Ts64 initialClock)
{
    LenientDecode out;
    out.trailingBytes = bytes.size() % OrderLog::kEntryWireBytes;
    if (out.trailingBytes != 0) {
        std::ostringstream os;
        os << "log ends mid-entry: " << bytes.size()
           << " bytes is not a multiple of "
           << OrderLog::kEntryWireBytes << " (likely truncated)";
        out.problems.push_back(os.str());
    }
    const std::size_t wholeBytes = bytes.size() - out.trailingBytes;
    std::unordered_map<ThreadId, Ts64> last;
    std::size_t index = 0;
    for (std::size_t off = 0; off < wholeBytes;
         off += OrderLog::kEntryWireBytes, ++index) {
        const ThreadId tid = static_cast<ThreadId>(get16(bytes, off));
        const Ts16 wire = get16(bytes, off + 2);
        const std::uint32_t instrs = get32(bytes, off + 4);

        auto [it, first] = last.try_emplace(tid, initialClock);
        const Ts64 prev = it->second;
        Ts64 clock = (prev & ~static_cast<Ts64>(0xffff)) | wire;
        if (clock < prev)
            clock += 1ULL << 16;
        it->second = clock;
        if (instrs == 0) {
            std::ostringstream os;
            os << "entry #" << index << " (thread " << tid
               << "): zero instruction count (the recorder elides "
                  "empty fragments)";
            out.problems.push_back(os.str());
            continue;
        }
        out.log.append(tid, clock, instrs);
    }
    return out;
}

void
saveOrderLog(const OrderLog &log, const std::string &path)
{
    const std::vector<std::uint8_t> bytes = encodeOrderLog(log);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        cord_fatal("cannot open '", path, "' for writing");
    const std::size_t written =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (written != bytes.size())
        cord_fatal("short write to '", path, "'");
}

std::vector<std::uint8_t>
loadLogBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::string err;
    if (!readFileBytes(path, bytes, err))
        cord_fatal(err);
    return bytes;
}

} // namespace cord
