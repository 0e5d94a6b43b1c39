/**
 * @file
 * Microbenchmarks (google-benchmark) of CORD's hot hardware-model
 * operations: windowed 16-bit clock comparisons, vector-clock joins
 * and compares, set-associative tag lookups, detector access
 * processing throughput, and event-queue scheduling.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <optional>

#include "cord/clock.h"
#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "cord/vector_clock.h"
#include "mem/cache_array.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace
{

using namespace cord;

void
BM_ScalarWindowCompare(benchmark::State &state)
{
    Rng rng(7);
    Ts64 clock = 100000;
    Ts16 ts = static_cast<Ts16>(clock - 37);
    for (auto _ : state) {
        benchmark::DoNotOptimize(reconstructTs(clock, ts));
        benchmark::DoNotOptimize(isSynchronized(clock, clock - 37, 16));
        clock += rng.below(3);
    }
}
BENCHMARK(BM_ScalarWindowCompare);

void
BM_VectorClockJoin(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    VectorClock a(n);
    VectorClock b(n);
    for (unsigned i = 0; i < n; ++i)
        b.setComponent(i, i * 3 + 1);
    for (auto _ : state) {
        a.join(b);
        benchmark::DoNotOptimize(a.lessEq(b));
    }
}
BENCHMARK(BM_VectorClockJoin)->Arg(4)->Arg(16)->Arg(64);

void
BM_CacheArrayLookup(benchmark::State &state)
{
    // An 80-byte payload, the size of a VC-L2Cache history line: the
    // set scan reads only the dense tags, so the payload size must not
    // show up in the miss path.  The working set is four times the
    // cache, so about a quarter of the lookups hit and the misses
    // insert, evicting the set's LRU line.
    struct Payload
    {
        std::array<std::uint64_t, 10> words{};
    };
    CacheArray<Payload> cache(CacheGeometry::paperL2());
    Rng rng(3);
    std::optional<CacheArray<Payload>::Line> victim;
    const std::uint64_t lines = 4 * cache.geometry().numLines();
    for (auto _ : state) {
        const Addr a = rng.below(lines) * kLineBytes;
        auto *line = cache.touch(a);
        if (!line)
            line = &cache.insert(a, victim);
        benchmark::DoNotOptimize(line->state.words[0]);
    }
}
BENCHMARK(BM_CacheArrayLookup);

void
BM_CordDetectorAccess(benchmark::State &state)
{
    CordConfig cfg;
    CordDetector det(cfg);
    Rng rng(11);
    MemEvent ev;
    std::uint64_t instr = 0;
    for (auto _ : state) {
        ev.tid = static_cast<ThreadId>(rng.below(4));
        ev.core = static_cast<CoreId>(ev.tid);
        ev.addr = rng.below(1 << 14) * kWordBytes;
        ev.kind = rng.chance(0.3) ? AccessKind::DataWrite
                                  : AccessKind::DataRead;
        ev.instrCount = ++instr;
        ev.tick = instr;
        det.onAccess(ev);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CordDetectorAccess);

void
BM_IdealDetectorAccess(benchmark::State &state)
{
    IdealDetector det(4);
    Rng rng(13);
    MemEvent ev;
    std::uint64_t instr = 0;
    for (auto _ : state) {
        ev.tid = static_cast<ThreadId>(rng.below(4));
        ev.core = static_cast<CoreId>(ev.tid);
        ev.addr = rng.below(1 << 14) * kWordBytes;
        ev.kind = rng.chance(0.3) ? AccessKind::DataWrite
                                  : AccessKind::DataRead;
        ev.instrCount = ++instr;
        ev.tick = instr;
        det.onAccess(ev);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IdealDetectorAccess);

void
BM_EventQueueScheduleStep(benchmark::State &state)
{
    EventQueue q;
    Rng rng(17);
    std::uint32_t sink = 0;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < 16; ++i)
            q.scheduleIn(rng.below(1000), {EventKind::MemOpDone, i},
                         EventQueue::kPriResponse);
        while (!q.empty())
            sink += q.pop().index;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EventQueueScheduleStep);

} // namespace

BENCHMARK_MAIN();
