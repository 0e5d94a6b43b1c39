/**
 * @file
 * rcureg -- epoch-published read-mostly registry (RCU-style).  Each
 * entry is an append-only chain of versioned value slots plus one sync
 * version word.  An updater builds the next version in a fresh slot
 * (copy-on-update -- the slot has never been visible to any reader)
 * and then publishes it with one sync store of the version word;
 * readers sync-load the version and walk that slot with plain loads,
 * never blocking and never taking a lock.  Slots are never reused, so
 * no grace period is needed and a clean run is race-free by
 * construction.  Updaters serialize per entry through a removable
 * mutex: removing it makes two updaters build the same "next" slot
 * concurrently -- racing writes to the same value words.
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

class RcuReg final : public Workload
{
  public:
    const WorkloadMeta &
    meta() const override
    {
        static const WorkloadMeta m{
            "rcureg", "n/a (server tier)",
            "2 entries, 16*scale req/thread, 1-in-3 updates",
            "epoch-published versions + per-entry update mutex",
            "server"};
        return m;
    }

    void
    setup(const WorkloadParams &p, AddressSpace &as) override
    {
        params_ = p;
        const unsigned perThread = 16 * p.scale;

        TrafficConfig cfg;
        cfg.mode = server::ArrivalMode::Poisson;
        cfg.requests = perThread;
        cfg.loadPercent = p.loadPercent;
        cfg.meanGapTicks = kMeanGapTicks;
        arrivals_ = server::perThreadArrivals(cfg, p.numThreads, p.seed,
                                              kTrafficTag);

        // Request streams: entry + lookup/update, from seed substreams.
        // Every 4th request updates, so the registry stays read-mostly
        // while still issuing enough removable mutex instances.
        requests_.assign(p.numThreads, {});
        std::vector<unsigned> updates(kEntries, 0);
        for (unsigned t = 0; t < p.numThreads; ++t) {
            Rng rng(Rng::deriveSeed(Rng::deriveSeed(p.seed, kMixTag), t));
            for (unsigned i = 0; i < perThread; ++i) {
                Request r;
                r.entry = static_cast<unsigned>(rng.below(kEntries));
                r.update = (i % 3) == 2;
                if (r.update)
                    ++updates[r.entry];
                requests_[t].push_back(r);
            }
        }

        // One slot chain per entry, sized for every possible version:
        // slot v holds version v, slot 0 is the (all-zero) initial
        // value.  Append-only, so capacity = 1 + total updates.
        entries_.clear();
        for (unsigned e = 0; e < kEntries; ++e) {
            Entry en;
            en.mutex = as.allocSync("reg.updateMutex");
            en.version = as.allocSync("reg.version");
            en.maxVersions = 1 + updates[e];
            en.slots = as.allocSharedLineAligned(
                en.maxVersions * kSlotWords, "reg.slots");
            entries_.push_back(en);
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
    static constexpr unsigned kEntries = 2;
    static constexpr unsigned kSlotWords = 6;
    static constexpr Tick kMeanGapTicks = 1200;
    static constexpr std::uint64_t kTrafficTag = 0x9c01;
    static constexpr std::uint64_t kMixTag = 0x9c02;

    struct Request
    {
        unsigned entry = 0;
        bool update = false;
    };

    struct Entry
    {
        Addr mutex = 0;
        Addr version = 0; //!< sync word: highest published version
        Addr slots = 0;
        unsigned maxVersions = 0;
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
            const Entry &en = entries_[reqs[i].entry];
            if (reqs[i].update) {
                co_await rt.lock(ctx, en.mutex);
                const std::uint64_t v =
                    (co_await opSyncLoad(en.version)).value;
                const std::uint64_t next = v + 1;
                cord_assert(next < en.maxVersions,
                            "rcureg: version chain overflow");
                co_await patterns::fillWords(
                    en.slots + next * kSlotWords * kWordBytes,
                    kSlotWords, next * 1000 + tid);
                // Model the copy/validation work of a real update while
                // the new slot is still private; this is the window an
                // unlocked concurrent updater races into.
                co_await opCompute(160);
                co_await opSyncStore(en.version, next);
                co_await rt.unlock(ctx, en.mutex);
            } else {
                const std::uint64_t v =
                    (co_await opSyncLoad(en.version)).value;
                co_await patterns::readWords(
                    en.slots + v * kSlotWords * kWordBytes, kSlotWords);
            }
            const Tick done = (co_await opCompute(8)).now;
            stats_.recordLatency(arr[i], done);
        }
    }

    WorkloadParams params_;
    std::vector<Entry> entries_;
    std::vector<std::vector<Tick>> arrivals_;
    std::vector<std::vector<Request>> requests_;
    TrafficStats stats_;
};

} // namespace

std::unique_ptr<Workload>
makeRcuReg()
{
    return std::make_unique<RcuReg>();
}

} // namespace cord
