/**
 * @file
 * Overhead-attribution profiler: scoped attribution domains that
 * accumulate exact simulated-cycle costs and sampled host wall-time
 * per component of the simulator (event-kernel dispatch, bus
 * arbitration, timing-memory service, the CORD detector's check / log /
 * timestamp / history paths, the vector-clock baseline, and offline
 * analysis passes).
 *
 * The design mirrors obs/tracer.h: profiling is off unless a Profiler
 * is activated on the current thread (ProfilerScope), and the disabled
 * fast path at every hook site is a single null test on a thread-local
 * pointer.  Activation is per thread so concurrent campaign runs on
 * worker threads each attribute into their own profiler.
 *
 * Two cost kinds are recorded per domain:
 *
 *  - **Simulated cycles** (addCycles): exact and deterministic -- e.g.
 *    the address-bus occupancy consumed by a CORD race-check charge, or
 *    the wait cycles a bus grant imposed.  These feed the paper-facing
 *    overhead decomposition ("profile.*" manifest metrics,
 *    `cordstat profile`).
 *
 *  - **Host wall time** (ProfWallTimer): sampled -- by default one in
 *    every 64 calls per domain is timed with a steady clock and the
 *    measurement is scaled to all calls at export time, so the hot
 *    paths pay two clock reads only on sampled iterations.  Wall time
 *    is host-dependent and therefore exported only into the volatile
 *    section of run manifests (suppressed under includeVolatile=false,
 *    keeping campaign manifests byte-identical).
 */

#ifndef CORD_OBS_PROFILER_H
#define CORD_OBS_PROFILER_H

#include <chrono>
#include <cstdint>
#include <string>

#include "sim/types.h"

namespace cord
{

/** Attribution domains (docs/OBSERVABILITY.md lists the taxonomy). */
enum class ProfDomain : std::uint8_t
{
    KernelDispatch, //!< event-kernel dispatch (sim/event_queue)
    BusArbitration, //!< bus grant waits, all traffic (mem/bus)
    MemService,     //!< MESI timing service (mem/timing_mem)
    CordCheck,      //!< CORD race-check path (snoop + bus charge)
    CordLog,        //!< CORD order-log append path
    CordTimestamp,  //!< CORD memTs maintenance via invalidation
    CordHistory,    //!< CORD history displacement / walker folds
    VcBaseline,     //!< vector-clock baseline detector
    Analysis,       //!< offline analysis passes (lint, predict)
};

/** Number of distinct attribution domains. */
constexpr unsigned kProfDomains =
    static_cast<unsigned>(ProfDomain::Analysis) + 1;

/** Stable lowercase name of @p d ("kernel_dispatch", ...). */
const char *profDomainName(ProfDomain d);

/** Metric-key segment of @p d ("kernelDispatch", "cordCheck", ...). */
const char *profDomainKey(ProfDomain d);

/** Per-thread cost accumulator; activate with ProfilerScope. */
class Profiler
{
  public:
    /** Default wall-time sampling period: one in every 64 calls per
     *  domain is actually timed.  1 == time every call. */
    static constexpr std::uint64_t kDefaultWallPeriod = 64;

    explicit Profiler(std::uint64_t wallPeriod = kDefaultWallPeriod)
        : wallPeriod_(wallPeriod ? wallPeriod : 1)
    {
        clear();
    }

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

    /** Count one call into @p d without a cycle cost. */
    void count(ProfDomain d) { ++calls_[static_cast<unsigned>(d)]; }

    /** Exact simulated cycles attributed to @p d. */
    std::uint64_t
    cycles(ProfDomain d) const
    {
        return cycles_[static_cast<unsigned>(d)];
    }

    /** Calls attributed to @p d (addCycles + count). */
    std::uint64_t
    calls(ProfDomain d) const
    {
        return calls_[static_cast<unsigned>(d)];
    }

    /// @{ @name Wall-time sampling (used through ProfWallTimer)

    /** Register one timed call into @p d; true when this call should
     *  be measured (last call of every sampling period).  A countdown
     *  rather than a modulo: the hot unsampled path is one increment,
     *  one decrement and a branch -- no 64-bit division. */
    bool
    beginWall(ProfDomain d)
    {
        ++wallCalls_[i(d)];
        if (--wallCountdown_[i(d)] > 0)
            return false;
        wallCountdown_[i(d)] = wallPeriod_;
        return true;
    }

    /** Register one always-measured call into @p d (cold paths). */
    bool
    beginWallAlways(ProfDomain d)
    {
        ++wallCalls_[i(d)];
        ++wallAlways_[i(d)];
        return true;
    }

    /** Record @p ns measured nanoseconds for one sampled call. */
    void
    endWall(ProfDomain d, std::uint64_t ns)
    {
        wallNs_[i(d)] += ns;
        ++wallSamples_[i(d)];
    }

    /** Record one exactly-measured block covering @p calls calls of
     *  @p d (e.g. a whole dispatch loop timed with two clock reads).
     *  Block measurements are never scaled at estimate time. */
    void
    addWallBlock(ProfDomain d, std::uint64_t ns, std::uint64_t calls)
    {
        wallNs_[i(d)] += ns;
        wallSamples_[i(d)] += calls;
        wallCalls_[i(d)] += calls;
        wallAlways_[i(d)] += calls;
    }

    /** Timed calls registered for @p d (sampled or not). */
    std::uint64_t wallCalls(ProfDomain d) const { return wallCalls_[i(d)]; }

    /** Calls of @p d actually measured. */
    std::uint64_t
    wallSamples(ProfDomain d) const
    {
        return wallSamples_[i(d)];
    }

    /** Raw measured nanoseconds of the sampled calls of @p d. */
    std::uint64_t wallSampledNs(ProfDomain d) const { return wallNs_[i(d)]; }

    /**
     * Estimated total wall nanoseconds spent in @p d, scaling the
     * sampled measurements up to all registered calls.  Calls recorded
     * through beginWallAlways are never scaled (they were all
     * measured); only the periodic remainder is extrapolated.
     */
    std::uint64_t wallEstimateNs(ProfDomain d) const;

    /// @}

    std::uint64_t wallPeriod() const { return wallPeriod_; }

    /** True when any domain recorded anything. */
    bool anyRecorded() const;

    /** Reset all accumulators. */
    void clear();

  private:
    friend class ProfilerScope;

    static constexpr unsigned
    i(ProfDomain d)
    {
        return static_cast<unsigned>(d);
    }

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

    std::uint64_t wallPeriod_;
    std::uint64_t cycles_[kProfDomains] = {};
    std::uint64_t calls_[kProfDomains] = {};
    std::uint64_t wallCountdown_[kProfDomains] = {};
    std::uint64_t wallCalls_[kProfDomains] = {};
    std::uint64_t wallAlways_[kProfDomains] = {};
    std::uint64_t wallSamples_[kProfDomains] = {};
    std::uint64_t wallNs_[kProfDomains] = {};
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

/**
 * Scoped sampled wall timer: measures the enclosed region into
 * @p domain on sampled iterations (every Profiler::wallPeriod-th call
 * per domain); a no-op beyond one branch when profiling is disabled.
 * Pass always=true on cold paths (analysis passes, one-shot work)
 * where every invocation should be measured instead of sampled.
 */
class ProfWallTimer
{
  public:
    explicit ProfWallTimer(ProfDomain domain, bool always = false)
        : p_(Profiler::active()), domain_(domain)
    {
        if (p_ &&
            (always ? p_->beginWallAlways(domain) : p_->beginWall(domain)))
            start_ = std::chrono::steady_clock::now();
        else
            p_ = nullptr; // not sampling this call
    }

    ~ProfWallTimer()
    {
        if (!p_)
            return;
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        p_->endWall(domain_, static_cast<std::uint64_t>(ns));
    }

    ProfWallTimer(const ProfWallTimer &) = delete;
    ProfWallTimer &operator=(const ProfWallTimer &) = delete;

  private:
    Profiler *p_;
    ProfDomain domain_;
    std::chrono::steady_clock::time_point start_;
};

class StatRegistry;

/**
 * Export the deterministic accumulators of @p p into @p reg as
 * "profile.<domainKey>.cycles" / ".calls" counters (non-zero domains
 * only).  Wall-time estimates are deliberately NOT exported here --
 * they are host-dependent; see RunManifest::hostProfile.
 */
void exportProfileStats(const Profiler &p, StatRegistry &reg);

} // namespace cord

#endif // CORD_OBS_PROFILER_H
