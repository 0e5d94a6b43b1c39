/**
 * @file
 * Overhead-attribution profiler: scoped attribution domains that
 * accumulate exact simulated-cycle costs per component of the
 * simulator (bus arbitration, timing-memory service, and the CORD
 * detector's check / timestamp / history paths).
 *
 * The design mirrors obs/tracer.h: profiling is off unless a Profiler
 * is activated on the current thread (ProfilerScope), and the disabled
 * fast path at every hook site is a single null test on a thread-local
 * pointer.  Activation is per thread so concurrent campaign runs on
 * worker threads each attribute into their own profiler.
 *
 * Costs are simulated cycles (addCycles), exact and deterministic --
 * e.g. the address-bus occupancy consumed by a CORD race-check charge,
 * or the wait cycles a bus grant imposed.  They feed the paper-facing
 * overhead decomposition ("profile.*" manifest metrics, `cordstat
 * profile`).  Host time per layer is campbench's job (its traced
 * per-layer replays), not the profiler's.
 */

#ifndef CORD_OBS_PROFILER_H
#define CORD_OBS_PROFILER_H

#include <cstdint>

namespace cord
{

/** Attribution domains (docs/OBSERVABILITY.md lists the taxonomy). */
enum class ProfDomain : std::uint8_t
{
    BusArbitration, //!< bus grant waits, all traffic (mem/bus)
    MemService,     //!< MESI timing service (mem/timing_mem)
    CordCheck,      //!< CORD race-check path (snoop + bus charge)
    CordTimestamp,  //!< CORD memTs maintenance via invalidation
    CordHistory,    //!< CORD history displacement / walker folds
};

/** Number of distinct attribution domains. */
constexpr unsigned kProfDomains =
    static_cast<unsigned>(ProfDomain::CordHistory) + 1;

/** Metric-key segment of @p d ("busArbitration", "cordCheck", ...). */
const char *profDomainKey(ProfDomain d);

/** Per-thread cost accumulator; activate with ProfilerScope. */
class Profiler
{
  public:
    /** The calling thread's active profiler, or nullptr when profiling
     *  is disabled on this thread. */
    static Profiler *active() { return active_; }

    /** Attribute @p cycles simulated cycles to @p d (exact). */
    void
    addCycles(ProfDomain d, std::uint64_t cycles)
    {
        cycles_[static_cast<unsigned>(d)] += cycles;
        ++calls_[static_cast<unsigned>(d)];
    }

    /** Exact simulated cycles attributed to @p d. */
    std::uint64_t
    cycles(ProfDomain d) const
    {
        return cycles_[static_cast<unsigned>(d)];
    }

    /** addCycles calls attributed to @p d. */
    std::uint64_t
    calls(ProfDomain d) const
    {
        return calls_[static_cast<unsigned>(d)];
    }

    /** True when any domain recorded anything. */
    bool anyRecorded() const;

    /** Reset all accumulators. */
    void clear();

  private:
    friend class ProfilerScope;

    /** Thread-local so one run's ProfilerScope (one run == one thread)
     *  never absorbs costs from runs on other campaign workers.
     *
     *  Local-exec TLS model: the simulator libraries are only linked
     *  statically into executables.  Under the default initial-exec
     *  model, GCC 12's UBSan null check may branch on the flags of an
     *  `add x@gottpoff(%rip), %reg` that ld rewrites into a flag-less
     *  `lea` when it relaxes the access to local-exec; the check then
     *  reads stale flags and reports a null pointer that is not there.
     *  Local-exec leaves ld nothing to rewrite. */
    [[gnu::tls_model("local-exec")]] static thread_local Profiler *active_;

    std::uint64_t cycles_[kProfDomains] = {};
    std::uint64_t calls_[kProfDomains] = {};
};

/** RAII activation of a profiler for the enclosing scope: one run on
 *  one thread (same contract as TracerScope). */
class ProfilerScope
{
  public:
    explicit ProfilerScope(Profiler &p) : prev_(Profiler::active_)
    {
        Profiler::active_ = &p;
    }

    ~ProfilerScope() { Profiler::active_ = prev_; }

    ProfilerScope(const ProfilerScope &) = delete;
    ProfilerScope &operator=(const ProfilerScope &) = delete;

  private:
    Profiler *prev_;
};

class StatRegistry;

/**
 * Export the deterministic accumulators of @p p into @p reg as
 * "profile.<domainKey>.cycles" / ".calls" counters (non-zero domains
 * only).
 */
void exportProfileStats(const Profiler &p, StatRegistry &reg);

} // namespace cord

#endif // CORD_OBS_PROFILER_H
