/**
 * @file
 * Low-overhead structured event tracing for the simulator.
 *
 * Components emit typed events (clock updates, race reports, order-log
 * appends, history lookups/displacements, bus transactions, cache
 * fills/evictions, sync acquire/release) into a preallocated ring
 * buffer owned by the run driver.  Tracing is off unless an EventTracer
 * is activated (TracerScope); the disabled fast path is a single
 * null-pointer test on a thread-local, and no buffer memory is
 * allocated until the first event is emitted.
 *
 * Activation is per thread: a TracerScope covers one run on the thread
 * that opened it, so concurrent campaign runs on worker threads
 * (harness/exec.h) each see only their own tracer and cannot
 * cross-write each other's ring buffers.
 *
 * The recorded stream exports as Chrome-trace JSON ("traceEvents")
 * loadable in Perfetto / chrome://tracing, with per-CPU, per-thread and
 * per-bus tracks and simulated-cycle timestamps (docs/OBSERVABILITY.md).
 */

#ifndef CORD_OBS_TRACER_H
#define CORD_OBS_TRACER_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace cord
{

/** Typed simulator events (docs/OBSERVABILITY.md lists the taxonomy). */
enum class TraceEventKind : std::uint8_t
{
    ClockUpdate,         //!< thread logical clock changed: a=new, b=old
    RaceReport,          //!< data race reported: a=addr, b=conflict ts
    LogAppend,           //!< order-log entry written: a=clock, b=total
    HistoryLookup,       //!< race-check snoop: a=addr, b=isWrite
    HistoryDisplacement, //!< history entry folded to memTs: a=addr, b=ts
    BusTransaction,      //!< bus granted: a=wait cycles, b=occupancy
    CacheFill,           //!< line installed: a=addr, b=service source
    CacheEvict,          //!< line victimized: a=addr, b=dirty
    SyncAcquire,         //!< sync read committed: a=addr, b=clock
    SyncRelease,         //!< sync write committed: a=addr, b=clock
    SchedDecision,       //!< schedule-policy decision: a=kind (0=pick,
                         //!< 1=delay), b=value (choice index / cycles)
};

/** Number of distinct event kinds. */
constexpr unsigned kTraceEventKinds =
    static_cast<unsigned>(TraceEventKind::SchedDecision) + 1;

/** Stable lowercase name of @p k ("clock_update", ...). */
const char *traceEventKindName(TraceEventKind k);

/** One recorded event (32 bytes). */
struct TraceEvent
{
    Tick tick = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    ThreadId tid = kInvalidThread; //!< kInvalidThread = not thread-bound
    CoreId core = 0;               //!< core, or bus id for bus events
    TraceEventKind kind = TraceEventKind::ClockUpdate;
};

/**
 * Ring buffer of TraceEvents.
 *
 * When more than `capacity` events are emitted the oldest are
 * overwritten; dropped() reports how many were lost so exports can
 * say so instead of silently truncating.
 */
class EventTracer
{
  public:
    /** Default ring capacity (events): 32768 events == 1 MiB of
     *  buffer.  Deliberately cache-resident -- an 8 MiB ring measurably
     *  slows the simulation down (~3%) purely through cache pollution,
     *  a 1 MiB ring records for free.  Deep captures can raise it via
     *  CORD_TRACE_CAPACITY (cordsim) at that cost. */
    static constexpr std::size_t kDefaultCapacity = 1u << 15;

    explicit EventTracer(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity ? capacity : 1)
    {
    }

    /** The calling thread's active tracer, or nullptr when tracing is
     *  disabled on this thread. */
    static EventTracer *active() { return active_; }

    /** Record one event (only called through an active tracer). */
    void
    emit(TraceEventKind kind, Tick tick, ThreadId tid, CoreId core,
         std::uint64_t a = 0, std::uint64_t b = 0)
    {
        if (ring_.empty())
            ring_.resize(capacity_); // first event: allocate the buffer
        // head_ wraps by compare-and-reset: a 64-bit modulo on the hot
        // path costs more than everything else in this function.
        TraceEvent &ev = ring_[head_];
        if (++head_ == capacity_)
            head_ = 0;
        ev.tick = tick;
        ev.a = a;
        ev.b = b;
        ev.tid = tid;
        ev.core = core;
        ev.kind = kind;
        ++total_;
        ++perKind_[static_cast<unsigned>(kind)];
    }

    /** Events ever emitted (including overwritten ones). */
    std::uint64_t total() const { return total_; }

    /** Events lost to ring wrap-around. */
    std::uint64_t
    dropped() const
    {
        return total_ > capacity_ ? total_ - capacity_ : 0;
    }

    /** Events currently held. */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(
            total_ < capacity_ ? total_ : capacity_);
    }

    /** Bytes of buffer memory currently allocated. */
    std::size_t bufferBytes() const
    {
        return ring_.size() * sizeof(TraceEvent);
    }

    std::size_t capacity() const { return capacity_; }

    /** Emitted events of kind @p k (including overwritten ones). */
    std::uint64_t
    count(TraceEventKind k) const
    {
        return perKind_[static_cast<unsigned>(k)];
    }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Drop all recorded events (buffer stays allocated). */
    void
    clear()
    {
        total_ = 0;
        head_ = 0;
        for (auto &c : perKind_)
            c = 0;
    }

  private:
    friend class TracerScope;

    /** Thread-local so one run's TracerScope (one run == one thread)
     *  never captures events from runs executing concurrently on other
     *  workers (see tests/obs_test.cpp TracerThreadIsolation).
     *
     *  Local-exec TLS model: the simulator libraries are only linked
     *  statically into executables.  Under the default initial-exec
     *  model, GCC 12's UBSan null check may branch on the flags of an
     *  `add x@gottpoff(%rip), %reg` that ld rewrites into a flag-less
     *  `lea` when it relaxes the access to local-exec; the check then
     *  reads stale flags and reports a null pointer that is not there.
     *  Local-exec leaves ld nothing to rewrite. */
    [[gnu::tls_model("local-exec")]] static thread_local EventTracer
        *active_;

    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;  //!< next slot to write (== total_ mod cap)
    std::uint64_t total_ = 0;
    std::uint64_t perKind_[kTraceEventKinds] = {};
};

/** RAII activation of a tracer for the enclosing scope: one run on one
 *  thread.  The scope must be opened on the thread that executes the
 *  run and only that thread's events are captured. */
class TracerScope
{
  public:
    explicit TracerScope(EventTracer &t) : prev_(EventTracer::active_)
    {
        EventTracer::active_ = &t;
    }

    ~TracerScope() { EventTracer::active_ = prev_; }

    TracerScope(const TracerScope &) = delete;
    TracerScope &operator=(const TracerScope &) = delete;

  private:
    EventTracer *prev_;
};

/**
 * Render the retained events as Chrome-trace JSON: an object with a
 * "traceEvents" array of instant events on per-CPU ("cpu"), per-thread
 * ("threads") and per-bus ("buses") tracks, "ts" in simulated processor
 * cycles, plus track-naming metadata and a "cordTrace" summary section
 * (counts per kind, drops).
 */
std::string renderChromeTrace(const EventTracer &tracer);

/** Write renderChromeTrace() output to @p path (fatal on I/O error). */
void saveChromeTrace(const EventTracer &tracer, const std::string &path);

} // namespace cord

#endif // CORD_OBS_TRACER_H
