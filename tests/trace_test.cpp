/**
 * @file
 * Unit tests for the access-trace tooling (harness/trace.h): binary
 * round trip, file I/O, and offline detector equivalence (a detector
 * driven from a trace must report exactly what it reported online).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "inject/injector.h"

namespace cord
{
namespace
{

TEST(Trace, EncodeDecodeRoundTrip)
{
    TraceRecorder rec;
    MemEvent ev;
    ev.tick = 5;
    ev.tid = 2;
    ev.core = 1;
    ev.addr = 0x1234;
    ev.kind = AccessKind::SyncWrite;
    ev.instrCount = 99;
    ev.value = 0xdeadbeef;
    rec.onAccess(ev);
    ev.tick = 6;
    ev.kind = AccessKind::DataRead;
    rec.onAccess(ev);
    rec.onThreadEnd(2, 100);

    const DecodedTrace dec = decodeTrace(encodeTrace(rec));
    ASSERT_EQ(dec.events.size(), 2u);
    EXPECT_EQ(dec.events[0].tick, 5u);
    EXPECT_EQ(dec.events[0].tid, 2);
    EXPECT_EQ(dec.events[0].core, 1);
    EXPECT_EQ(dec.events[0].addr, 0x1234u);
    EXPECT_EQ(dec.events[0].kind, AccessKind::SyncWrite);
    EXPECT_EQ(dec.events[0].instrCount, 99u);
    EXPECT_EQ(dec.events[0].value, 0xdeadbeefu);
    EXPECT_EQ(dec.events[1].kind, AccessKind::DataRead);
    ASSERT_EQ(dec.threadEnds.size(), 1u);
    EXPECT_EQ(dec.threadEnds[0].first, 2);
    EXPECT_EQ(dec.threadEnds[0].second, 100u);
}

TEST(Trace, CorruptBufferIsFatal)
{
    // A valid one-event trace with no thread ends: 24-byte header plus
    // one 40-byte record.
    TraceRecorder rec;
    rec.onAccess(MemEvent{});
    const std::vector<std::uint8_t> good = encodeTrace(rec);
    ASSERT_EQ(good.size(), 64u);

    std::vector<std::uint8_t> hugeCount(good.begin(), good.begin() + 24);
    const std::uint64_t claimed = std::uint64_t{1} << 60;
    std::memcpy(hugeCount.data() + 8, &claimed, sizeof claimed);
    std::vector<std::uint8_t> trailing = good;
    trailing.push_back(0);

    const struct
    {
        const char *name;
        std::vector<std::uint8_t> bytes;
        const char *message;
    } cases[] = {
        {"bad magic", std::vector<std::uint8_t>(24, 0xab), "bad magic"},
        {"huge count", hugeCount, "claims 1152921504606846976 events"},
        {"truncated record",
         std::vector<std::uint8_t>(good.begin(), good.end() - 1),
         "truncated trace"},
        {"2-byte file", std::vector<std::uint8_t>(good.begin(),
                                                  good.begin() + 2),
         "truncated trace"},
        {"one trailing byte", trailing, "1 trailing byte"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_EXIT(decodeTrace(c.bytes), ::testing::ExitedWithCode(1),
                    c.message);
    }
    EXPECT_EXIT(loadTrace(::testing::TempDir()),
                ::testing::ExitedWithCode(1), "cannot read");
}

TEST(Trace, OfflineDetectionMatchesOnline)
{
    // Run an injected workload online with CORD + Ideal + recorder,
    // then re-drive fresh detector instances from the trace: the race
    // counts and the order log must match exactly.
    RemoveOneInstance filter({1, 3});
    TraceRecorder trace;
    CordConfig cc;
    CordDetector onlineCord(cc);
    IdealDetector onlineIdeal(4);

    RunSetup run;
    run.workload = "cholesky";
    run.params.seed = 23;
    run.filter = &filter;
    run.maxTicks = 500000000ULL;
    run.detectors = {&trace, &onlineCord, &onlineIdeal};
    const RunOutcome out = runWorkload(run);
    ASSERT_TRUE(out.completed);

    const DecodedTrace dec = decodeTrace(encodeTrace(trace));
    EXPECT_EQ(dec.events.size(), out.accesses);

    CordDetector offlineCord(cc);
    IdealDetector offlineIdeal(4);
    runDetectorOnTrace(dec, offlineCord);
    runDetectorOnTrace(dec, offlineIdeal);

    EXPECT_EQ(offlineCord.races().pairs(), onlineCord.races().pairs());
    EXPECT_EQ(offlineIdeal.races().pairs(),
              onlineIdeal.races().pairs());
    EXPECT_EQ(offlineCord.orderLog().size(),
              onlineCord.orderLog().size());
    for (std::size_t i = 0; i < offlineCord.orderLog().size(); ++i) {
        EXPECT_EQ(offlineCord.orderLog().entries()[i].clock,
                  onlineCord.orderLog().entries()[i].clock);
    }
}

TEST(Trace, FileRoundTrip)
{
    TraceRecorder rec;
    MemEvent ev;
    ev.addr = 0x42;
    ev.kind = AccessKind::DataWrite;
    for (int i = 0; i < 100; ++i) {
        ev.tick = i;
        ev.instrCount = i + 1;
        rec.onAccess(ev);
    }
    const std::string path = ::testing::TempDir() + "/cord_trace.bin";
    saveTrace(rec, path);
    const DecodedTrace dec = loadTrace(path);
    EXPECT_EQ(dec.events.size(), 100u);
    EXPECT_EQ(dec.events[99].tick, 99u);
    std::remove(path.c_str());
}

} // namespace
} // namespace cord
