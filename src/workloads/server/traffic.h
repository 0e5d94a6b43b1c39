/**
 * @file
 * Seeded open-loop traffic engine for the server workload family.
 *
 * Each server application is driven by a per-thread arrival schedule
 * precomputed in setup(): absolute simulated ticks at which requests
 * become due.  The schedule depends only on (seed, load, scale), never
 * on the interleaving, so injection campaigns stay bit-identical for
 * any --jobs N.  Arrivals are open-loop: a request's latency is
 * measured from its scheduled arrival tick to its completion tick, so
 * queueing delay under overload is part of the tail, exactly like a
 * load generator hammering a real server.  A worker waits for each
 * arrival with one opSpinUntil (runtime/sim_task.h), which spins at
 * full issue width and lands on the arrival tick, or completes at once
 * when the worker is already late.
 *
 * Two arrival processes are supported (docs/WORKLOADS.md):
 *  - Poisson: independent exponential inter-arrival gaps;
 *  - Bursty: short back-to-back bursts separated by long exponential
 *    silences, same mean rate, much heavier tail.
 *
 * The exponential sampler is integer-only (a 16-step binary logarithm
 * in q16 fixed point), so schedules are bit-reproducible across
 * platforms and libm versions -- the same property the rest of the
 * repository gets from its fixed xoshiro256** generator.
 */

#ifndef CORD_WORKLOADS_SERVER_TRAFFIC_H
#define CORD_WORKLOADS_SERVER_TRAFFIC_H

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cord
{
namespace server
{

/** Arrival process shapes. */
enum class ArrivalMode : std::uint8_t
{
    Poisson, //!< exponential inter-arrival gaps
    Bursty,  //!< bursts of back-to-back arrivals, long silences between
};

/** One thread's traffic: how many requests arrive, and how. */
struct TrafficConfig
{
    ArrivalMode mode = ArrivalMode::Poisson;
    unsigned requests = 0;       //!< requests in this schedule
    std::uint64_t seed = 1;      //!< arrival-gap RNG seed
    unsigned loadPercent = 100;  //!< offered load (100 = nominal rate)
    Tick meanGapTicks = 2000;    //!< nominal mean inter-arrival at 100%
    unsigned burstLen = 8;       //!< Bursty: requests per burst
};

/**
 * Deterministic exponential-ish gap with the given mean, from integer
 * arithmetic only (see the file comment).
 */
Tick expGap(Rng &rng, Tick meanTicks);

/** Absolute arrival ticks (nondecreasing), one per request. */
std::vector<Tick> makeArrivals(const TrafficConfig &cfg);

/** The effective mean inter-arrival gap after load scaling. */
inline Tick
effectiveMeanGap(const TrafficConfig &cfg)
{
    const unsigned load = cfg.loadPercent == 0 ? 100 : cfg.loadPercent;
    const Tick gap = cfg.meanGapTicks * 100 / load;
    return gap == 0 ? 1 : gap;
}

/**
 * Per-run request accounting for one server application: the latency
 * distribution (log2 buckets, quantiles via HistogramStat::quantile)
 * plus the drop and saturation tail counters.  Single simulation
 * thread, so plain fields suffice; exported into run stats through
 * Workload::exportStats.
 */
struct TrafficStats
{
    HistogramStat latency;
    std::uint64_t arrived = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;   //!< bounded-queue overflow at arrival
    std::uint64_t saturated = 0; //!< latency above saturationLatency
    Tick saturationLatency = 0;  //!< 0 = saturation not tracked
    unsigned loadPercent = 100;

    void
    recordLatency(Tick arrivalTick, Tick completionTick)
    {
        const Tick lat =
            completionTick > arrivalTick ? completionTick - arrivalTick : 0;
        latency.add(lat);
        ++completed;
        if (saturationLatency != 0 && lat > saturationLatency)
            ++saturated;
    }

    /** Export as "server.*" run metrics (runner.cpp hook). */
    void
    exportInto(StatRegistry &out) const
    {
        out.histogramRef("server.latencyTicks") = latency;
        out.set("server.requests.arrived", arrived);
        out.set("server.requests.completed", completed);
        out.set("server.requests.dropped", dropped);
        out.set("server.requests.saturated", saturated);
        out.set("server.loadPercent", loadPercent);
    }
};

/**
 * One arrival schedule per thread, each from an independent substream
 * of (seed, tag, tid) -- so schedules depend only on the workload's
 * shape parameters, never on the interleaving.
 */
inline std::vector<std::vector<Tick>>
perThreadArrivals(const TrafficConfig &base, unsigned numThreads,
                  std::uint64_t seed, std::uint64_t tag)
{
    std::vector<std::vector<Tick>> out;
    out.reserve(numThreads);
    for (unsigned t = 0; t < numThreads; ++t) {
        TrafficConfig c = base;
        c.seed = Rng::deriveSeed(Rng::deriveSeed(seed, tag), t);
        out.push_back(makeArrivals(c));
    }
    return out;
}

} // namespace server
} // namespace cord

#endif // CORD_WORKLOADS_SERVER_TRAFFIC_H
