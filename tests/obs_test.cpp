/**
 * @file
 * Observability-layer unit tests: JSON writer/parser round trips, the
 * event tracer (ordering, ring wrap, disabled-by-default guarantees),
 * the Chrome-trace export schema, and the upgraded StatRegistry
 * (gauges and log2 histograms).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <thread>

#include "cord/cord_detector.h"
#include "harness/runner.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/stats.h"

using namespace cord;

namespace
{

// ---------------------------------------------------------------- JSON

TEST(Json, WriterParserRoundTrip)
{
    JsonWriter w(/*pretty=*/true);
    w.beginObject();
    w.field("name", "CORD \"observability\"\n");
    w.field("enabled", true);
    w.field("count", std::uint64_t(18446744073709551615ULL));
    w.field("delta", std::int64_t(-42));
    w.field("ratio", 0.25);
    w.key("none");
    w.null();
    w.key("list");
    w.beginArray();
    w.value(1);
    w.value("two");
    w.beginObject();
    w.field("nested", 3.5);
    w.endObject();
    w.endArray();
    w.endObject();

    std::string err;
    const auto v = JsonValue::parse(w.str(), &err);
    ASSERT_TRUE(v.has_value()) << err;
    ASSERT_TRUE(v->isObject());
    EXPECT_EQ(v->str("name"), "CORD \"observability\"\n");
    EXPECT_TRUE(v->find("enabled")->asBool());
    EXPECT_DOUBLE_EQ(v->num("count"), 18446744073709551615.0);
    EXPECT_DOUBLE_EQ(v->num("delta"), -42.0);
    EXPECT_DOUBLE_EQ(v->num("ratio"), 0.25);
    EXPECT_TRUE(v->find("none")->isNull());

    const JsonValue *list = v->find("list");
    ASSERT_NE(list, nullptr);
    ASSERT_TRUE(list->isArray());
    ASSERT_EQ(list->size(), 3u);
    EXPECT_DOUBLE_EQ(list->items()[0].asNumber(), 1.0);
    EXPECT_EQ(list->items()[1].asString(), "two");
    EXPECT_DOUBLE_EQ(list->items()[2].num("nested"), 3.5);
}

TEST(Json, ParseRejectsGarbage)
{
    EXPECT_FALSE(JsonValue::parse("").has_value());
    EXPECT_FALSE(JsonValue::parse("{").has_value());
    EXPECT_FALSE(JsonValue::parse("{\"a\":1,}").has_value());
    EXPECT_FALSE(JsonValue::parse("[1,2] trailing").has_value());
    EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
    EXPECT_FALSE(JsonValue::parse("nulll").has_value());
}

TEST(Json, ParseBoundsNestingDepth)
{
    // 10^6 nested '[' once overflowed the recursive descent's stack.
    std::string err;
    EXPECT_FALSE(JsonValue::parse(std::string(1000000, '['), &err));
    EXPECT_NE(err.find("nested too deeply"), std::string::npos) << err;

    const unsigned max = JsonValue::kMaxDepth;
    const std::string deepest =
        std::string(max - 1, '[') + "{\"a\":1}" + std::string(max - 1, ']');
    EXPECT_TRUE(JsonValue::parse(deepest, &err)) << err;
    const std::string over =
        std::string(max, '[') + "{\"a\":1}" + std::string(max, ']');
    EXPECT_FALSE(JsonValue::parse(over));
}

TEST(Json, CordstatShowRejectsDeepNesting)
{
    const std::string path = testing::TempDir() + "deep_nesting.json";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const std::string deep(2000000, '[');
        std::fwrite(deep.data(), 1, deep.size(), f);
        std::fclose(f);
    }
    const std::string cmd = std::string(CORDSTAT_BIN) + " show " + path +
                            " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << "cordstat died: status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 2);
    std::remove(path.c_str());
}

TEST(Json, ParseUnicodeEscapes)
{
    const auto v = JsonValue::parse("\"a\\u0041\\u00e9\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->asString(), "aA\xc3\xa9");
}

// -------------------------------------------------------------- tracer

TEST(Tracer, DisabledByDefaultAndAllocatesNothing)
{
    // No TracerScope anywhere: tracing must be off ...
    EXPECT_EQ(EventTracer::active(), nullptr);

    // ... so a full simulated run emits zero events into a tracer that
    // was constructed but never activated, and the tracer itself holds
    // no buffer memory until the first emit.
    EventTracer idle;
    RunSetup setup;
    setup.workload = "fft";
    setup.params.numThreads = 4;
    setup.params.scale = 1;
    setup.params.seed = 3;
    const RunOutcome out = runWorkload(setup);
    EXPECT_TRUE(out.completed);

    EXPECT_EQ(idle.total(), 0u);
    EXPECT_EQ(idle.bufferBytes(), 0u);
    EXPECT_EQ(EventTracer::active(), nullptr);
}

TEST(Tracer, ScopeActivatesAndRestores)
{
    EventTracer outer, inner;
    EXPECT_EQ(EventTracer::active(), nullptr);
    {
        TracerScope a(outer);
        EXPECT_EQ(EventTracer::active(), &outer);
        {
            TracerScope b(inner);
            EXPECT_EQ(EventTracer::active(), &inner);
        }
        EXPECT_EQ(EventTracer::active(), &outer);
    }
    EXPECT_EQ(EventTracer::active(), nullptr);
}

TEST(Tracer, TracerThreadIsolation)
{
    // EventTracer::active_ is thread_local: activation on one thread is
    // invisible to every other, so parallel campaign workers
    // (harness/exec.h) can each scope their own tracer without
    // cross-writing each other's ring buffers.
    EventTracer main;
    TracerScope scope(main);
    ASSERT_EQ(EventTracer::active(), &main);

    EventTracer a, b;
    auto emitVia = [](EventTracer &t, std::uint64_t base) {
        // A fresh thread starts with no active tracer, regardless of
        // what the spawning thread has activated.
        EXPECT_EQ(EventTracer::active(), nullptr);
        TracerScope s(t);
        EXPECT_EQ(EventTracer::active(), &t);
        for (std::uint64_t i = 0; i < 64; ++i)
            EventTracer::active()->emit(TraceEventKind::BusTransaction,
                                        /*tick=*/i, kInvalidThread,
                                        /*core=*/0, /*a=*/base + i);
    };
    std::thread ta([&] { emitVia(a, 1000); });
    std::thread tb([&] { emitVia(b, 2000); });
    ta.join();
    tb.join();

    // The spawning thread's activation survives untouched, and no
    // worker event leaked into the wrong buffer.
    EXPECT_EQ(EventTracer::active(), &main);
    EXPECT_EQ(main.total(), 0u);
    EXPECT_EQ(a.total(), 64u);
    EXPECT_EQ(b.total(), 64u);
    for (const TraceEvent &ev : a.snapshot())
        EXPECT_TRUE(ev.a >= 1000 && ev.a < 2000) << ev.a;
    for (const TraceEvent &ev : b.snapshot())
        EXPECT_GE(ev.a, 2000u) << ev.a;
}

TEST(Tracer, PreservesEmissionOrderAndWraps)
{
    EventTracer t(/*capacity=*/4);
    for (std::uint64_t i = 0; i < 6; ++i)
        t.emit(TraceEventKind::BusTransaction, /*tick=*/10 * i,
               kInvalidThread, /*core=*/0, /*a=*/i);

    EXPECT_EQ(t.total(), 6u);
    EXPECT_EQ(t.dropped(), 2u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.count(TraceEventKind::BusTransaction), 6u);
    EXPECT_EQ(t.bufferBytes(), 4 * sizeof(TraceEvent));

    // Oldest-first snapshot: events 2..5 survive, in emission order.
    const auto evs = t.snapshot();
    ASSERT_EQ(evs.size(), 4u);
    for (std::size_t i = 0; i < evs.size(); ++i) {
        EXPECT_EQ(evs[i].a, i + 2);
        EXPECT_EQ(evs[i].tick, 10 * (i + 2));
    }
}

TEST(Tracer, RealRunEmitsOrderedEvents)
{
    EventTracer t;
    CordConfig cc;
    cc.numCores = 4;
    cc.numThreads = 4;
    CordDetector cord(cc);

    RunSetup setup;
    setup.workload = "fft";
    setup.params.numThreads = 4;
    setup.params.scale = 1;
    setup.params.seed = 3;
    setup.detectors = {&cord};
    RunOutcome out;
    {
        TracerScope scope(t);
        out = runWorkload(setup);
    }
    ASSERT_TRUE(out.completed);
    ASSERT_GT(t.total(), 0u);

    // The memory system and the detector both show up.
    EXPECT_GT(t.count(TraceEventKind::BusTransaction), 0u);
    EXPECT_GT(t.count(TraceEventKind::HistoryLookup), 0u);
    EXPECT_GT(t.count(TraceEventKind::LogAppend), 0u);
    EXPECT_GT(t.count(TraceEventKind::SyncAcquire), 0u);
    EXPECT_GT(t.count(TraceEventKind::SyncRelease), 0u);

    // Within each track timestamps never regress.  (Global emission
    // order is not tick-sorted: bus grants are stamped with the future
    // grant tick at request time.)  Track identity mirrors the Chrome
    // export: thread-bound kinds key on tid, the rest on core/bus id.
    auto trackOf = [](const TraceEvent &ev) {
        switch (ev.kind) {
          case TraceEventKind::ClockUpdate:
          case TraceEventKind::RaceReport:
          case TraceEventKind::LogAppend:
          case TraceEventKind::SyncAcquire:
          case TraceEventKind::SyncRelease:
            return 1000 + static_cast<int>(ev.tid);
          case TraceEventKind::BusTransaction:
            return 2000 + static_cast<int>(ev.core);
          default:
            return static_cast<int>(ev.core);
        }
    };
    std::map<int, Tick> lastTick;
    for (const TraceEvent &ev : t.snapshot()) {
        const int track = trackOf(ev);
        const auto it = lastTick.find(track);
        if (it != lastTick.end()) {
            EXPECT_GE(ev.tick, it->second);
        }
        lastTick[track] = ev.tick;
    }
}

TEST(Tracer, ChromeTraceSchemaRoundTrip)
{
    EventTracer t(/*capacity=*/16);
    t.emit(TraceEventKind::ClockUpdate, 5, /*tid=*/1, /*core=*/2,
           /*a=*/7, /*b=*/3);
    t.emit(TraceEventKind::CacheFill, 9, kInvalidThread, /*core=*/0,
           /*a=*/0x40);
    t.emit(TraceEventKind::BusTransaction, 12, kInvalidThread,
           /*core=*/1, /*a=*/4, /*b=*/6);

    std::string err;
    const auto v = JsonValue::parse(renderChromeTrace(t), &err);
    ASSERT_TRUE(v.has_value()) << err;

    const JsonValue *section = v->find("cordTrace");
    ASSERT_NE(section, nullptr);
    EXPECT_EQ(section->str("schema"), "cord-trace-v1");
    EXPECT_DOUBLE_EQ(section->num("totalEvents"), 3.0);
    EXPECT_DOUBLE_EQ(section->num("droppedEvents"), 0.0);
    const JsonValue *counts = section->find("countsByKind");
    ASSERT_NE(counts, nullptr);
    EXPECT_EQ(counts->size(), kTraceEventKinds);
    EXPECT_DOUBLE_EQ(counts->num("clock_update"), 1.0);
    EXPECT_DOUBLE_EQ(counts->num("cache_fill"), 1.0);
    EXPECT_DOUBLE_EQ(counts->num("bus_transaction"), 1.0);

    const JsonValue *events = v->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    unsigned instants = 0, metadata = 0;
    for (const JsonValue &ev : events->items()) {
        ASSERT_TRUE(ev.isObject());
        const std::string ph = ev.str("ph");
        if (ph == "M") {
            ++metadata;
            continue;
        }
        ASSERT_EQ(ph, "i");
        ++instants;
        EXPECT_NE(ev.find("name"), nullptr);
        EXPECT_NE(ev.find("ts"), nullptr);
        EXPECT_NE(ev.find("pid"), nullptr);
        EXPECT_NE(ev.find("tid"), nullptr);
        EXPECT_NE(ev.find("args"), nullptr);
    }
    EXPECT_EQ(instants, 3u);
    // 3 process_name entries + one thread_name per used track.
    EXPECT_EQ(metadata, 3u + 3u);

    // The clock_update instant sits on the threads track (pid 1, tid 1)
    // and carries its core in args.
    for (const JsonValue &ev : events->items()) {
        if (ev.str("name") != "clock_update" || ev.str("ph") != "i")
            continue;
        EXPECT_DOUBLE_EQ(ev.num("pid"), 1.0);
        EXPECT_DOUBLE_EQ(ev.num("tid"), 1.0);
        EXPECT_DOUBLE_EQ(ev.num("ts"), 5.0);
        const JsonValue *args = ev.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_DOUBLE_EQ(args->num("clock"), 7.0);
        EXPECT_DOUBLE_EQ(args->num("prev"), 3.0);
        EXPECT_DOUBLE_EQ(args->num("core"), 2.0);
    }
}

// --------------------------------------------------- stats: histograms

TEST(Histogram, BucketBoundaries)
{
    // Bucket 0 holds exactly {0}; bucket k>=1 holds [2^(k-1), 2^k).
    EXPECT_EQ(HistogramStat::bucketOf(0), 0u);
    EXPECT_EQ(HistogramStat::bucketOf(1), 1u);
    EXPECT_EQ(HistogramStat::bucketOf(2), 2u);
    EXPECT_EQ(HistogramStat::bucketOf(3), 2u);
    EXPECT_EQ(HistogramStat::bucketOf(4), 3u);
    EXPECT_EQ(HistogramStat::bucketOf(7), 3u);
    EXPECT_EQ(HistogramStat::bucketOf(8), 4u);
    for (unsigned k = 1; k < 64; ++k) {
        const std::uint64_t lo = std::uint64_t(1) << (k - 1);
        EXPECT_EQ(HistogramStat::bucketOf(lo), k);
        EXPECT_EQ(HistogramStat::bucketOf(2 * lo - 1), k);
    }
    EXPECT_EQ(
        HistogramStat::bucketOf(std::numeric_limits<std::uint64_t>::max()),
        HistogramStat::kBuckets - 1);

    // bucketLow/bucketHigh invert bucketOf at the edges.
    EXPECT_EQ(HistogramStat::bucketLow(0), 0u);
    EXPECT_EQ(HistogramStat::bucketHigh(0), 0u);
    for (unsigned b = 1; b < HistogramStat::kBuckets; ++b) {
        EXPECT_EQ(HistogramStat::bucketOf(HistogramStat::bucketLow(b)), b);
        EXPECT_EQ(HistogramStat::bucketOf(HistogramStat::bucketHigh(b)),
                  b);
    }
    EXPECT_EQ(HistogramStat::bucketHigh(HistogramStat::kBuckets - 1),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Histogram, AccumulatesSummary)
{
    StatRegistry r;
    r.observe("h", 0);
    r.observe("h", 1);
    r.observe("h", 16);
    r.observe("h", 17);
    const HistogramStat h = r.histogram("h");
    EXPECT_EQ(h.count, 4u);
    EXPECT_EQ(h.sum, 34u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 17u);
    EXPECT_DOUBLE_EQ(h.mean(), 8.5);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[1], 1u);
    EXPECT_EQ(h.buckets[5], 2u); // 16 and 17 share [16,32)
}

TEST(Gauge, MinMaxMean)
{
    StatRegistry r;
    EXPECT_EQ(r.gauge("g").count, 0u);
    r.sample("g", 2.0);
    r.sample("g", -1.0);
    r.sample("g", 5.0);
    const GaugeStat g = r.gauge("g");
    EXPECT_EQ(g.count, 3u);
    EXPECT_DOUBLE_EQ(g.min, -1.0);
    EXPECT_DOUBLE_EQ(g.max, 5.0);
    EXPECT_DOUBLE_EQ(g.mean(), 2.0);
}

TEST(StatRegistry, HandlesShareSlotsWithNamedApi)
{
    // Pre-registered handles (the hot-path API) and the string-keyed
    // calls must address the same slots, so exports and merges see one
    // value regardless of which API incremented it.
    StatRegistry r;
    Counter c = r.counter("cord.raceChecks");
    EXPECT_TRUE(static_cast<bool>(c));
    EXPECT_EQ(c.value(), 0u);
    // Binding materializes the counter at zero in exports.
    EXPECT_TRUE(r.has("cord.raceChecks"));

    c.inc();
    c.inc(4);
    EXPECT_EQ(r.get("cord.raceChecks"), 5u);
    r.inc("cord.raceChecks", 10);
    EXPECT_EQ(c.value(), 15u);
    c.set(3);
    EXPECT_EQ(r.get("cord.raceChecks"), 3u);

    Gauge g = r.gaugeHandle("occ");
    g.sample(2.0);
    g.sample(4.0);
    EXPECT_EQ(r.gauge("occ").count, 2u);
    EXPECT_DOUBLE_EQ(g.stat().mean(), 3.0);

    Histogram h = r.histogramHandle("jump");
    h.observe(0);
    h.observe(16);
    EXPECT_EQ(r.histogram("jump").count, 2u);
    EXPECT_EQ(h.stat().max, 16u);
}

TEST(StatRegistry, HandlesStayValidAcrossOtherInsertions)
{
    // std::map nodes never move: a handle bound early must survive
    // arbitrarily many later registrations (detectors bind all their
    // handles in the constructor, workloads register stats afterwards).
    StatRegistry r;
    Counter c = r.counter("a.first");
    for (int i = 0; i < 1000; ++i)
        r.inc("pad." + std::to_string(i));
    c.inc(7);
    EXPECT_EQ(r.get("a.first"), 7u);
}

TEST(StatRegistry, DefaultHandleIsUnbound)
{
    Counter c;
    Gauge g;
    Histogram h;
    EXPECT_FALSE(static_cast<bool>(c));
    EXPECT_FALSE(static_cast<bool>(g));
    EXPECT_FALSE(static_cast<bool>(h));
}

TEST(StatRegistry, MergeWithPrefix)
{
    StatRegistry a, b;
    a.inc("x", 2);
    b.inc("x", 3);
    b.sample("g", 1.0);
    b.observe("h", 4);

    StatRegistry hub;
    hub.merge("", a);
    hub.merge("comp", b);
    EXPECT_EQ(hub.get("x"), 2u);
    EXPECT_EQ(hub.get("comp.x"), 3u);
    EXPECT_EQ(hub.gauge("comp.g").count, 1u);
    EXPECT_EQ(hub.histogram("comp.h").count, 1u);

    // Same-name merges accumulate.
    hub.merge("comp", b);
    EXPECT_EQ(hub.get("comp.x"), 6u);
    EXPECT_EQ(hub.gauge("comp.g").count, 2u);
    EXPECT_EQ(hub.histogram("comp.h").count, 2u);
}

// ----------------------------------------------------------- MetricHub

TEST(MetricHub, JsonRoundTripThroughFlatten)
{
    StatRegistry r;
    r.set("bus.addr.waitCycles", 10);
    r.set("bus.addr", 99); // leaf + prefix: emitted as "value"
    r.inc("simple", 7);
    r.sample("occupancy", 3.0);
    r.sample("occupancy", 5.0);
    r.observe("jump", 8);

    MetricHub hub;
    hub.add("mem", r);

    JsonWriter w(/*pretty=*/true);
    hub.writeJson(w);
    std::string err;
    const auto v = JsonValue::parse(w.str(), &err);
    ASSERT_TRUE(v.has_value()) << err;

    const auto flat = flattenMetricsJson(*v);
    EXPECT_DOUBLE_EQ(flat.at("mem.bus.addr.waitCycles"), 10.0);
    EXPECT_DOUBLE_EQ(flat.at("mem.bus.addr"), 99.0);
    EXPECT_DOUBLE_EQ(flat.at("mem.simple"), 7.0);
    EXPECT_DOUBLE_EQ(flat.at("mem.occupancy.count"), 2.0);
    EXPECT_DOUBLE_EQ(flat.at("mem.occupancy.mean"), 4.0);
    EXPECT_DOUBLE_EQ(flat.at("mem.occupancy.min"), 3.0);
    EXPECT_DOUBLE_EQ(flat.at("mem.occupancy.max"), 5.0);
    EXPECT_DOUBLE_EQ(flat.at("mem.jump.count"), 1.0);
    EXPECT_DOUBLE_EQ(flat.at("mem.jump.mean"), 8.0);
}

} // namespace
