/**
 * @file
 * kvstore -- sharded key-value store under reader-writer locks.
 * Every simulated thread is one server worker draining its own
 * open-loop (Poisson) request stream: mostly GETs that read a value
 * range under the shard's read lock, with a write fraction of PUTs
 * that take the shard's write lock.  The classic serving idiom: reads
 * scale until a writer shows up, and an injected removal of either
 * lock side races the value words directly.
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

class KvStore final : public Workload
{
  public:
    const WorkloadMeta &
    meta() const override
    {
        static const WorkloadMeta m{
            "kvstore", "n/a (server tier)",
            "8 shards, 16*scale req/thread, Poisson arrivals",
            "per-shard reader-writer locks", "server"};
        return m;
    }

    void
    setup(const WorkloadParams &p, AddressSpace &as) override
    {
        params_ = p;
        shardWords_ = 16 * p.scale;
        shardLocks_.clear();
        shardData_.clear();
        for (unsigned s = 0; s < kShards; ++s) {
            shardLocks_.push_back(as.allocSync("shard.rwlock"));
            shardData_.push_back(
                as.allocSharedLineAligned(shardWords_, "shard.values"));
        }

        TrafficConfig cfg;
        cfg.mode = server::ArrivalMode::Poisson;
        cfg.requests = 16 * p.scale;
        cfg.loadPercent = p.loadPercent;
        cfg.meanGapTicks = kMeanGapTicks;
        arrivals_ = server::perThreadArrivals(cfg, p.numThreads, p.seed,
                                              kTrafficTag);

        // Precompute every thread's request stream (key + GET/PUT) from
        // its own substream, independent of interleaving.
        requests_.assign(p.numThreads, {});
        for (unsigned t = 0; t < p.numThreads; ++t) {
            Rng rng(Rng::deriveSeed(Rng::deriveSeed(p.seed, kKeyTag), t));
            for (unsigned i = 0; i < cfg.requests; ++i) {
                Request r;
                r.key = static_cast<unsigned>(rng.below(kShards * 64));
                r.put = rng.below(100) < kPutPercent;
                requests_[t].push_back(r);
            }
        }

        stats_ = TrafficStats{};
        stats_.loadPercent = p.loadPercent;
        stats_.saturationLatency = 8 * kMeanGapTicks;
    }

    Task<void>
    body(SyncRuntime &rt, ThreadCtx &ctx) override
    {
        return run(rt, ctx);
    }

    void
    exportStats(StatRegistry &out) const override
    {
        stats_.exportInto(out);
    }

  private:
    static constexpr unsigned kShards = 8;
    static constexpr unsigned kPutPercent = 20;
    static constexpr unsigned kValueWords = 4;
    static constexpr Tick kMeanGapTicks = 2000;
    static constexpr std::uint64_t kTrafficTag = 0x5e71;
    static constexpr std::uint64_t kKeyTag = 0x5e72;

    struct Request
    {
        unsigned key = 0;
        bool put = false;
    };

    Task<void>
    run(SyncRuntime &rt, ThreadCtx &ctx)
    {
        const unsigned tid = ctx.tid;
        const auto &arr = arrivals_[tid];
        const auto &reqs = requests_[tid];
        for (unsigned i = 0; i < reqs.size(); ++i) {
            co_await opSpinUntil(arr[i]);
            ++stats_.arrived;
            const Request &rq = reqs[i];
            const unsigned shard = rq.key % kShards;
            const unsigned slot =
                (rq.key / kShards) % (shardWords_ - kValueWords + 1);
            const Addr base = shardData_[shard] + slot * kWordBytes;
            if (rq.put) {
                co_await rt.rwWriteLock(ctx, shardLocks_[shard]);
                co_await patterns::bumpWords(base, kValueWords,
                                             1 + rq.key);
                co_await rt.rwWriteUnlock(ctx, shardLocks_[shard]);
            } else {
                co_await rt.rwReadLock(ctx, shardLocks_[shard]);
                co_await patterns::readWords(base, kValueWords);
                co_await rt.rwReadUnlock(ctx, shardLocks_[shard]);
            }
            const Tick done = (co_await opCompute(8)).now;
            stats_.recordLatency(arr[i], done);
        }
    }

    WorkloadParams params_;
    unsigned shardWords_ = 0;
    std::vector<Addr> shardLocks_;
    std::vector<Addr> shardData_;
    std::vector<std::vector<Tick>> arrivals_;
    std::vector<std::vector<Request>> requests_;
    TrafficStats stats_;
};

} // namespace

std::unique_ptr<Workload>
makeKvStore()
{
    return std::make_unique<KvStore>();
}

} // namespace cord
