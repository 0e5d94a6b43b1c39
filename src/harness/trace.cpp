#include "harness/trace.h"

#include <cstdio>
#include <cstring>

#include "sim/logging.h"
#include "sim/read_file.h"

namespace cord
{

namespace
{

constexpr std::uint32_t kMagic = 0xC07D72AC;
constexpr std::uint32_t kVersion = 1;

/** Fixed-size on-disk record (little-endian, packed manually). */
struct WireEvent
{
    std::uint64_t tick;
    std::uint64_t addr;
    std::uint64_t instrCount;
    std::uint64_t value;
    std::uint16_t tid;
    std::uint16_t core;
    std::uint8_t kind;
    std::uint8_t pad[3];
};
static_assert(sizeof(WireEvent) == 40, "unexpected trace record size");

/** magic, version, event count, thread-end count. */
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
/** One thread-end record: tid (u16) + instruction count (u64). */
constexpr std::size_t kThreadEndBytes = 2 + 8;

template <typename T>
void
putRaw(std::vector<std::uint8_t> &out, const T &v)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T
getRaw(const std::vector<std::uint8_t> &in, std::size_t &off)
{
    cord_assert(off + sizeof(T) <= in.size(), "truncated trace buffer");
    T v;
    std::memcpy(&v, in.data() + off, sizeof(T));
    off += sizeof(T);
    return v;
}

} // namespace

std::vector<std::uint8_t>
encodeTrace(const DecodedTrace &trace)
{
    std::vector<std::uint8_t> out;
    out.reserve(32 + trace.events.size() * sizeof(WireEvent));
    putRaw(out, kMagic);
    putRaw(out, kVersion);
    putRaw(out, static_cast<std::uint64_t>(trace.events.size()));
    putRaw(out, static_cast<std::uint64_t>(trace.threadEnds.size()));
    for (const MemEvent &ev : trace.events) {
        WireEvent w{};
        w.tick = ev.tick;
        w.addr = ev.addr;
        w.instrCount = ev.instrCount;
        w.value = ev.value;
        w.tid = ev.tid;
        w.core = ev.core;
        w.kind = static_cast<std::uint8_t>(ev.kind);
        putRaw(out, w);
    }
    for (const auto &[tid, instrs] : trace.threadEnds) {
        putRaw(out, static_cast<std::uint16_t>(tid));
        putRaw(out, static_cast<std::uint64_t>(instrs));
    }
    return out;
}

bool
decodeTrace(const std::vector<std::uint8_t> &bytes, DecodedTrace &out,
            std::string &err)
{
    auto refuse = [&](const auto &...parts) {
        err = detail::format(parts...);
        return false;
    };
    if (bytes.size() < kHeaderBytes)
        return refuse("truncated trace: ", bytes.size(),
                      " byte(s), the header alone is ", kHeaderBytes);
    std::size_t off = 0;
    const auto magic = getRaw<std::uint32_t>(bytes, off);
    const auto version = getRaw<std::uint32_t>(bytes, off);
    if (magic != kMagic)
        return refuse("not a CORD trace (bad magic)");
    if (version != kVersion)
        return refuse("unsupported trace version ", version);
    const auto nEvents = getRaw<std::uint64_t>(bytes, off);
    const auto nEnds = getRaw<std::uint64_t>(bytes, off);
    // The counts must account for every byte after the header exactly;
    // divide rather than multiply so a huge count cannot overflow.
    const std::uint64_t payload = bytes.size() - kHeaderBytes;
    if (nEvents > payload / sizeof(WireEvent))
        return refuse("truncated trace: header claims ", nEvents,
                      " events, but only ", payload, " bytes follow it");
    const std::uint64_t endBytes = payload - nEvents * sizeof(WireEvent);
    if (nEnds > endBytes / kThreadEndBytes)
        return refuse("truncated trace: header claims ", nEnds,
                      " thread ends, but only ", endBytes,
                      " bytes follow the events");
    if (endBytes != nEnds * kThreadEndBytes)
        return refuse("corrupt trace: ",
                      endBytes - nEnds * kThreadEndBytes,
                      " trailing byte(s) after the last record");
    // No run has this many threads; sizing per-thread state by such a
    // count would exhaust memory or abort.
    if (nEnds > kMaxThreads)
        return refuse("corrupt trace: ", nEnds,
                      " thread ends (a run has at most ", kMaxThreads,
                      " threads)");

    // The thread ends come last but say how many threads ran: they
    // must name threads 0..n-1 exactly once each.
    const auto n = static_cast<unsigned>(nEnds);
    out.threadEnds.clear();
    out.threadEnds.reserve(n);
    std::vector<bool> ended(n, false);
    std::size_t endOff = kHeaderBytes + nEvents * sizeof(WireEvent);
    for (unsigned i = 0; i < n; ++i) {
        const auto tid = getRaw<std::uint16_t>(bytes, endOff);
        const auto instrs = getRaw<std::uint64_t>(bytes, endOff);
        if (tid >= n)
            return refuse("corrupt trace: thread end ", i,
                          " names thread ", tid, " of a ", n,
                          "-thread trace");
        if (ended[tid])
            return refuse("corrupt trace: thread ", tid, " ends twice");
        ended[tid] = true;
        out.threadEnds.emplace_back(tid, instrs);
    }

    out.events.clear();
    out.events.reserve(nEvents);
    for (std::uint64_t i = 0; i < nEvents; ++i) {
        const auto w = getRaw<WireEvent>(bytes, off);
        if (w.tid >= n)
            return refuse("corrupt trace: event ", i, " names thread ",
                          w.tid, " of a ", n, "-thread trace");
        // Per-core state is sized by the largest core ID.
        if (w.core >= kMaxCores)
            return refuse("corrupt trace: event ", i, " runs on core ",
                          w.core, " (a run has at most ", kMaxCores,
                          " cores)");
        if (w.kind > static_cast<std::uint8_t>(AccessKind::SyncWrite))
            return refuse("corrupt trace: bad access kind ", w.kind);
        MemEvent ev;
        ev.tick = w.tick;
        ev.addr = w.addr;
        ev.instrCount = w.instrCount;
        ev.value = w.value;
        ev.tid = w.tid;
        ev.core = w.core;
        ev.kind = static_cast<AccessKind>(w.kind);
        out.events.push_back(ev);
    }
    return true;
}

DecodedTrace
decodeTrace(const std::vector<std::uint8_t> &bytes)
{
    DecodedTrace out;
    std::string err;
    if (!decodeTrace(bytes, out, err))
        cord_fatal(err);
    return out;
}

void
saveTrace(const DecodedTrace &trace, const std::string &path)
{
    const std::vector<std::uint8_t> bytes = encodeTrace(trace);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        cord_fatal("cannot open '", path, "' for writing");
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (written != bytes.size())
        cord_fatal("short write to '", path, "'");
}

bool
loadTrace(const std::string &path, DecodedTrace &out, std::string &err)
{
    std::vector<std::uint8_t> bytes;
    return readFileBytes(path, bytes, err) && decodeTrace(bytes, out, err);
}

void
runDetectorOnTrace(const DecodedTrace &trace, Detector &detector,
                   const std::function<void(const MemEvent &)> &afterAccess)
{
    for (const MemEvent &ev : trace.events) {
        detector.onAccess(ev);
        if (afterAccess)
            afterAccess(ev);
    }
    for (const auto &[tid, instrs] : trace.threadEnds)
        detector.onThreadEnd(tid, instrs);
    detector.finish();
}

} // namespace cord
