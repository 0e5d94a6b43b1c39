/**
 * @file
 * eventloop -- producer-consumer event loop over a bounded ring.  The
 * first half of the threads are producers pushing bursty arrivals into
 * a mutex-protected ring buffer (capacity 16); the rest are consumer
 * loops draining it and writing per-event output records.  When the
 * ring is full at arrival time the event is *dropped* and counted --
 * the drop counter is the workload's overload signal, and queueing
 * delay inside the ring is what saturates the latency tail.  Removing
 * the ring mutex races the head/tail/slot words; removing the
 * producers-done accounting hangs the consumers (a watchdog timeout).
 *
 * The consumer's empty-poll backoff is jittered from a per-thread seed
 * stream: the simulator is deterministic, so a fixed-length poll cycle
 * can phase-lock against another thread spinning on the ring mutex --
 * the jitter keeps the relative phases drifting so every contender
 * eventually wins its acquire.
 */

#include <vector>

#include "sim/rng.h"
#include "workloads/factories.h"
#include "workloads/patterns.h"
#include "workloads/server/traffic.h"
#include "workloads/workload.h"

namespace cord
{
namespace
{

using server::TrafficConfig;
using server::TrafficStats;

class EventLoop final : public Workload
{
  public:
    const WorkloadMeta &
    meta() const override
    {
        static const WorkloadMeta m{
            "eventloop", "n/a (server tier)",
            "16-slot ring, 20*scale events/producer, bursty arrivals",
            "ring mutex + producers-done flag", "server"};
        return m;
    }

    void
    setup(const WorkloadParams &p, AddressSpace &as) override
    {
        params_ = p;
        producers_ = p.numThreads >= 2 ? p.numThreads / 2 : 1;
        perProducer_ = 20 * p.scale;

        qLock_ = as.allocSync("ring.lock");
        const Addr q =
            as.allocSharedLineAligned(3 + kRingCap, "ring.state");
        qHead_ = q;
        qTail_ = q + kWordBytes;
        qDoneProducers_ = q + 2 * kWordBytes;
        qSlots_ = q + 3 * kWordBytes;
        doneFlag_ = as.allocSync("ring.allDone");
        output_ = as.allocSharedLineAligned(
            producers_ * perProducer_ * kEventWords, "ring.output");

        TrafficConfig cfg;
        cfg.mode = server::ArrivalMode::Bursty;
        cfg.requests = perProducer_;
        cfg.loadPercent = p.loadPercent;
        cfg.meanGapTicks = kMeanGapTicks;
        cfg.burstLen = 6;
        arrivals_ = server::perThreadArrivals(cfg, producers_, p.seed,
                                              kTrafficTag);

        stats_ = TrafficStats{};
        stats_.loadPercent = p.loadPercent;
        stats_.saturationLatency = 8 * kMeanGapTicks;
    }

    Task<void>
    body(SyncRuntime &rt, ThreadCtx &ctx) override
    {
        if (ctx.tid < producers_)
            return produce(rt, ctx);
        return consume(rt, ctx);
    }

    void
    exportStats(StatRegistry &out) const override
    {
        stats_.exportInto(out);
    }

  private:
    static constexpr unsigned kRingCap = 16;
    static constexpr unsigned kEventWords = 3;
    static constexpr Tick kMeanGapTicks = 1200;
    static constexpr std::uint64_t kTrafficTag = 0xe7e0;
    static constexpr std::uint64_t kJitterTag = 0xe7e1;

    std::uint64_t
    eventId(unsigned producer, unsigned idx) const
    {
        return (static_cast<std::uint64_t>(idx) << 8) | producer;
    }

    Task<void>
    produce(SyncRuntime &rt, ThreadCtx &ctx)
    {
        const unsigned tid = ctx.tid;
        const auto &arr = arrivals_[tid];
        for (unsigned i = 0; i < arr.size(); ++i) {
            co_await opSpinUntil(arr[i]);
            ++stats_.arrived;
            co_await rt.lock(ctx, qLock_);
            const std::uint64_t head = (co_await opLoad(qHead_)).value;
            const std::uint64_t tail = (co_await opLoad(qTail_)).value;
            if (tail - head < kRingCap) {
                co_await opStore(qSlots_ + (tail % kRingCap) * kWordBytes,
                                 eventId(tid, i));
                co_await opStore(qTail_, tail + 1);
            } else {
                ++stats_.dropped;
            }
            co_await rt.unlock(ctx, qLock_);
        }
        // Producer epilogue: count myself done; the last producer
        // raises the all-done flag consumers poll for.
        co_await rt.lock(ctx, qLock_);
        const std::uint64_t done =
            (co_await opLoad(qDoneProducers_)).value + 1;
        co_await opStore(qDoneProducers_, done);
        co_await rt.unlock(ctx, qLock_);
        if (done >= producers_)
            co_await rt.flagSet(ctx, doneFlag_, 1);
        // The single-thread configuration has no consumer; drain the
        // ring inline so every queued event still completes.
        if (params_.numThreads == 1)
            co_await consume(rt, ctx);
    }

    Task<void>
    consume(SyncRuntime &rt, ThreadCtx &ctx)
    {
        Rng jitter(Rng::deriveSeed(
            Rng::deriveSeed(params_.seed, kJitterTag), ctx.tid));
        bool finalPass = false;
        // Exponential idle backoff: poll hard while events flow, back
        // off (up to 32x) when scans keep coming up empty.  Beyond
        // keeping an idle consumer cheap, this keeps the removable-
        // instance census from drowning in empty-scan lock pairs whose
        // removal can never race (an empty scan only reads).
        unsigned emptyRounds = 0;
        for (;;) {
            co_await rt.lock(ctx, qLock_);
            const std::uint64_t head = (co_await opLoad(qHead_)).value;
            const std::uint64_t tail = (co_await opLoad(qTail_)).value;
            std::uint64_t id = 0;
            bool got = false;
            if (head < tail) {
                id = (co_await opLoad(qSlots_ +
                                      (head % kRingCap) * kWordBytes))
                         .value;
                co_await opStore(qHead_, head + 1);
                got = true;
            }
            co_await rt.unlock(ctx, qLock_);
            if (got) {
                const unsigned producer =
                    static_cast<unsigned>(id & 0xff);
                const unsigned idx = static_cast<unsigned>(id >> 8);
                co_await patterns::fillWords(
                    output_ + (static_cast<std::uint64_t>(producer) *
                                   perProducer_ +
                               idx) *
                                  kEventWords * kWordBytes,
                    kEventWords, id);
                const Tick done = (co_await opCompute(24)).now;
                stats_.recordLatency(arrivals_[producer][idx], done);
                finalPass = false;
                emptyRounds = 0;
                continue;
            }
            // Empty: leave once every producer has finished AND one
            // more locked scan after seeing the flag still finds the
            // ring empty -- a push racing the first empty scan would
            // otherwise be abandoned.
            const std::uint64_t allDone =
                (co_await opSyncLoad(doneFlag_)).value;
            if (allDone >= 1) {
                if (finalPass)
                    co_return;
                finalPass = true;
                continue;
            }
            if (emptyRounds < 5)
                ++emptyRounds;
            const std::uint32_t base = 32u << emptyRounds;
            co_await opCompute(
                base + static_cast<std::uint32_t>(jitter.below(base)));
        }
    }

    WorkloadParams params_;
    unsigned producers_ = 1;
    unsigned perProducer_ = 0;
    Addr qLock_ = 0;
    Addr qHead_ = 0;
    Addr qTail_ = 0;
    Addr qDoneProducers_ = 0;
    Addr qSlots_ = 0;
    Addr doneFlag_ = 0;
    Addr output_ = 0;
    std::vector<std::vector<Tick>> arrivals_;
    TrafficStats stats_;
};

} // namespace

std::unique_ptr<Workload>
makeEventLoop()
{
    return std::make_unique<EventLoop>();
}

} // namespace cord
