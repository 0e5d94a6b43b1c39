/**
 * @file
 * Unit tests for the order-log wire codec (cord/log_codec.h): the
 * 8-byte format round-trips, 64-bit clocks are reconstructed across
 * 16-bit wraparounds, and the bounded-jump invariant is enforced.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "cord/clock.h"
#include "cord/cord_detector.h"
#include "cord/log_codec.h"
#include "harness/runner.h"

namespace cord
{
namespace
{

TEST(LogCodec, EmptyLogRoundTrips)
{
    OrderLog log;
    const auto bytes = encodeOrderLog(log);
    EXPECT_TRUE(bytes.empty());
    EXPECT_EQ(decodeOrderLog(bytes).size(), 0u);
}

TEST(LogCodec, SimpleRoundTrip)
{
    OrderLog log;
    log.append(0, 1, 100);
    log.append(1, 1, 50);
    log.append(0, 7, 25);
    log.append(1, 9, 10);

    const auto bytes = encodeOrderLog(log);
    EXPECT_EQ(bytes.size(), 4 * OrderLog::kEntryWireBytes);

    const OrderLog decoded = decodeOrderLog(bytes);
    ASSERT_EQ(decoded.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(decoded.entries()[i].tid, log.entries()[i].tid);
        EXPECT_EQ(decoded.entries()[i].clock, log.entries()[i].clock);
        EXPECT_EQ(decoded.entries()[i].instrs, log.entries()[i].instrs);
    }
}

TEST(LogCodec, ReconstructsClocksAcrossWraparound)
{
    // Per-thread clocks stride across several 16-bit epochs in jumps
    // below the half-window; the decoder must recover all of them.
    OrderLog log;
    Ts64 clock = 1;
    for (int i = 0; i < 40; ++i) {
        log.append(0, clock, 10 + i);
        clock += 12000; // < 2^15 - 1, crosses 64K boundaries repeatedly
    }
    ASSERT_TRUE(isWireEncodable(log));
    const OrderLog decoded = decodeOrderLog(encodeOrderLog(log));
    ASSERT_EQ(decoded.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(decoded.entries()[i].clock, log.entries()[i].clock)
            << "entry " << i;
}

TEST(LogCodec, InterleavedThreadsReconstructIndependently)
{
    OrderLog log;
    Ts64 c0 = 1;
    Ts64 c1 = 1;
    for (int i = 0; i < 30; ++i) {
        log.append(0, c0, 5);
        log.append(1, c1, 6);
        c0 += 9000;
        c1 += 15000;
    }
    const OrderLog decoded = decodeOrderLog(encodeOrderLog(log));
    for (std::size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(decoded.entries()[i].clock, log.entries()[i].clock);
}

TEST(LogCodec, RejectsUnboundedJumps)
{
    OrderLog log;
    log.append(0, 1, 10);
    log.append(0, 1 + kClockWindow, 10); // jump == window: ambiguous
    EXPECT_FALSE(isWireEncodable(log));
    EXPECT_DEATH(encodeOrderLog(log), "bounded-jump");
}

TEST(LogCodec, RealRecordingRoundTrips)
{
    // Record a real workload; its log must be wire-encodable and must
    // survive the round trip bit-exactly (this is the artifact a real
    // CORD chip would dump to memory).
    CordConfig cc;
    CordDetector recorder(cc);
    RunSetup rec;
    rec.workload = "fmm";
    rec.params.seed = 17;
    rec.detectors = {&recorder};
    const RunOutcome out = runWorkload(rec);
    ASSERT_TRUE(out.completed);
    const OrderLog &log = recorder.orderLog();
    ASSERT_GT(log.size(), 0u);
    ASSERT_TRUE(isWireEncodable(log));

    const OrderLog decoded = decodeOrderLog(encodeOrderLog(log));
    ASSERT_EQ(decoded.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(decoded.entries()[i].tid, log.entries()[i].tid);
        ASSERT_EQ(decoded.entries()[i].clock, log.entries()[i].clock)
            << "entry " << i;
        EXPECT_EQ(decoded.entries()[i].instrs, log.entries()[i].instrs);
    }
}

TEST(LogCodec, MaxLengthRunRoundTrips)
{
    // The 32-bit instruction-count field must carry its extremes.
    OrderLog log;
    log.append(0, 1, 0xffffffffu);
    log.append(0, 2, 1);
    log.append(0, 3, 0xffffffffu);
    const OrderLog decoded = decodeOrderLog(encodeOrderLog(log));
    ASSERT_EQ(decoded.size(), 3u);
    EXPECT_EQ(decoded.entries()[0].instrs, 0xffffffffu);
    EXPECT_EQ(decoded.entries()[2].instrs, 0xffffffffu);
}

TEST(LogCodec, LargestLegalJumpRoundTrips)
{
    // jump == kClockWindow - 1 is the boundary the window permits.
    OrderLog log;
    log.append(0, 1, 10);
    log.append(0, 1 + kClockWindow - 1, 10);
    ASSERT_TRUE(isWireEncodable(log));
    const OrderLog decoded = decodeOrderLog(encodeOrderLog(log));
    EXPECT_EQ(decoded.entries()[1].clock, 1 + kClockWindow - 1);
}

TEST(LogCodecLenient, CleanLogDecodesWithoutProblems)
{
    OrderLog log;
    log.append(0, 1, 100);
    log.append(1, 4, 50);
    const LenientDecode d = decodeOrderLogLenient(encodeOrderLog(log));
    EXPECT_TRUE(d.problems.empty());
    EXPECT_EQ(d.trailingBytes, 0u);
    EXPECT_EQ(d.log.size(), 2u);
}

TEST(LogCodecLenient, TruncatedBufferKeepsWholeEntries)
{
    OrderLog log;
    log.append(0, 1, 100);
    log.append(0, 2, 50);
    log.append(0, 3, 25);
    for (std::size_t cut = 1; cut < OrderLog::kEntryWireBytes; ++cut) {
        auto bytes = encodeOrderLog(log);
        bytes.resize(bytes.size() - cut);
        const LenientDecode d = decodeOrderLogLenient(bytes);
        EXPECT_EQ(d.log.size(), 2u) << "cut " << cut;
        EXPECT_EQ(d.trailingBytes, OrderLog::kEntryWireBytes - cut);
        ASSERT_EQ(d.problems.size(), 1u) << "cut " << cut;
        EXPECT_NE(d.problems[0].find("mid-entry"), std::string::npos);
    }
}

TEST(LogCodecLenient, SubEntryBufferIsAllTrailing)
{
    const std::vector<std::uint8_t> bytes(5, 0xab);
    const LenientDecode d = decodeOrderLogLenient(bytes);
    EXPECT_EQ(d.log.size(), 0u);
    EXPECT_EQ(d.trailingBytes, 5u);
    EXPECT_EQ(d.problems.size(), 1u);
}

TEST(LogCodecLenient, ZeroInstrEntryDroppedButAdvancesClockChain)
{
    OrderLog log;
    log.append(0, 1, 100);
    log.append(0, 30000, 50);
    log.append(0, 60000, 25);
    auto bytes = encodeOrderLog(log);
    // Zero out the middle entry's instruction count; the recorder
    // never emits such entries, so the decoder must flag it.
    for (std::size_t k = 4; k < OrderLog::kEntryWireBytes; ++k)
        bytes[OrderLog::kEntryWireBytes + k] = 0;

    const LenientDecode d = decodeOrderLogLenient(bytes);
    ASSERT_EQ(d.problems.size(), 1u);
    EXPECT_NE(d.problems[0].find("zero"), std::string::npos);
    // Dropped from the log, but clock reconstruction still saw it:
    // the final entry's 64-bit clock must be unchanged.
    ASSERT_EQ(d.log.size(), 2u);
    EXPECT_EQ(d.log.entries()[1].clock, 60000u);
}

TEST(LogCodecLenient, WraparoundSurvivesLenientPath)
{
    OrderLog log;
    Ts64 clock = 1;
    for (int i = 0; i < 40; ++i) {
        log.append(2, clock, 10);
        clock += 12000;
    }
    const LenientDecode d = decodeOrderLogLenient(encodeOrderLog(log));
    ASSERT_TRUE(d.problems.empty());
    ASSERT_EQ(d.log.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(d.log.entries()[i].clock, log.entries()[i].clock);
}

TEST(LogCodec, SaveAndLoadRoundTrip)
{
    OrderLog log;
    log.append(0, 1, 100);
    log.append(1, 2, 64);
    log.append(0, 5, 32);
    const std::string path =
        ::testing::TempDir() + "log_codec_roundtrip.ordlog";
    saveOrderLog(log, path);
    const std::vector<std::uint8_t> bytes = loadLogBytes(path);
    EXPECT_EQ(bytes, encodeOrderLog(log));
    std::remove(path.c_str());
}

TEST(LogCodec, SaveAndLoadEmptyLog)
{
    const std::string path =
        ::testing::TempDir() + "log_codec_empty.ordlog";
    saveOrderLog(OrderLog{}, path);
    EXPECT_TRUE(loadLogBytes(path).empty());
    std::remove(path.c_str());
}

TEST(LogCodec, LoadDirectoryIsFatal)
{
    EXPECT_EXIT(loadLogBytes(::testing::TempDir()),
                ::testing::ExitedWithCode(1), "cannot read");
}

} // namespace
} // namespace cord
