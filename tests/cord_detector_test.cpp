/**
 * @file
 * Directed unit tests for the CORD mechanism (cord/cord_detector.h),
 * reproducing the paper's Figure 2-9 scenarios by feeding hand-crafted
 * access streams into the detector:
 *
 *  - Figure 3: clock updates on data races mask overlapping races;
 *  - Figure 4: clock increments after sync writes are required;
 *  - Figure 5: no clock increments on reads;
 *  - Figure 6: displaced sync variables order through the main-memory
 *    timestamp, and races found through it are never reported;
 *  - Figures 8/9: the sync-read margin D widens the detection window;
 *  - Figure 2: the second per-line timestamp preserves history;
 *  - Section 2.7.2: check-filter bits do not change detection;
 *  - Section 2.7.4: the migration clock bump suppresses self-races;
 *  - Section 2.7.5: the cache walker keeps the 16-bit window valid.
 */

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "cord/cord_detector.h"

namespace cord
{
namespace
{

/** Feeds a scripted access stream into a detector. */
class Feeder
{
  public:
    explicit Feeder(const CordConfig &cfg)
        : det_(std::make_unique<CordDetector>(cfg))
    {
    }

    CordDetector &det() { return *det_; }

    void
    access(ThreadId tid, Addr addr, AccessKind kind,
           CoreId coreOverride = kInvalidThread)
    {
        MemEvent ev;
        ev.tick = ++tick_;
        ev.tid = tid;
        ev.core = coreOverride == kInvalidThread
                      ? static_cast<CoreId>(tid % 4)
                      : static_cast<CoreId>(coreOverride);
        ev.addr = addr;
        ev.kind = kind;
        ev.instrCount = ++instrs_[tid];
        det_->onAccess(ev);
    }

    void read(ThreadId t, Addr a) { access(t, a, AccessKind::DataRead); }
    void write(ThreadId t, Addr a) { access(t, a, AccessKind::DataWrite); }
    void syncRead(ThreadId t, Addr a) { access(t, a, AccessKind::SyncRead); }
    void syncWrite(ThreadId t, Addr a)
    {
        access(t, a, AccessKind::SyncWrite);
    }

    /** Touch many distinct lines from @p tid to force displacements. */
    void
    thrash(ThreadId t, unsigned lines, Addr base = 0x4000000)
    {
        for (unsigned i = 0; i < lines; ++i)
            write(t, base + i * kLineBytes);
    }

    std::uint64_t races() const { return det_->races().pairs(); }

  private:
    std::unique_ptr<CordDetector> det_;
    Tick tick_ = 0;
    std::uint64_t instrs_[64] = {};
};

CordConfig
config(std::uint32_t d = 1)
{
    CordConfig cfg;
    cfg.d = d;
    return cfg;
}

constexpr Addr X = 0x1000;
constexpr Addr Y = 0x2000;
constexpr Addr L = 0x3000; // a "lock" word

TEST(CordScenario, PlainUnorderedConflictIsARace)
{
    Feeder f(config(1));
    f.write(0, X);
    f.read(1, X); // clocks both 1: 1 <= 1 -> race
    EXPECT_EQ(f.races(), 1u);
    // The racing reader's clock was updated past the writer's ts.
    EXPECT_GT(f.det().threadClock(1), f.det().threadClock(0));
}

TEST(CordScenario, ReadReadNeverConflicts)
{
    Feeder f(config(16));
    f.read(0, X);
    f.read(1, X);
    f.read(2, X);
    EXPECT_EQ(f.races(), 0u);
}

TEST(CordScenario, SameThreadNeverRaces)
{
    Feeder f(config(16));
    f.write(0, X);
    f.read(0, X);
    f.write(0, X);
    EXPECT_EQ(f.races(), 0u);
}

TEST(CordScenario, Figure3_DataRaceClockUpdateMasksOverlappingRace)
{
    // Thread A writes X and Y at clock 1; B's race on X updates its
    // clock, hiding the race on Y (with D = 1).
    Feeder f(config(1));
    f.write(0, X);
    f.write(0, Y);
    f.read(1, X);
    EXPECT_EQ(f.races(), 1u);
    f.read(1, Y);
    EXPECT_EQ(f.races(), 1u) << "race on Y is masked (paper Figure 3)";
}

TEST(CordScenario, Figure3_MarginDReportsOverlappingRace)
{
    // With D > 1 the ordered-but-unsynchronized conflict on Y is still
    // reported (Section 2.6 widens the window).
    Feeder f(config(16));
    f.write(0, X);
    f.write(0, Y);
    f.read(1, X);
    f.read(1, Y);
    EXPECT_EQ(f.races(), 2u);
}

TEST(CordScenario, Figure4_SyncWriteIncrementEnablesDetection)
{
    // A releases L then writes X *after* the release; B acquires L.
    // Because A's clock was incremented after the sync write, A's
    // write to X is timestamped above B's acquired clock, and the
    // real race on X is found (with D = 1 it would be found iff the
    // increment happened; see paper Figure 4).
    Feeder f(config(1));
    f.syncWrite(0, L); // wts=1, A's clock -> 2
    f.write(0, X);     // X ts = 2
    f.syncRead(1, L);  // B's clock = wts + D = 2
    f.read(1, X);      // 2 <= 2 -> race
    EXPECT_EQ(f.races(), 1u);
}

TEST(CordScenario, Figure5_NoClockIncrementOnReads)
{
    // B reads unrelated Y before reading X; if reads incremented B's
    // clock the race on X would be missed (paper Figure 5).
    Feeder f(config(1));
    f.write(0, X); // ts 1
    f.read(1, Y);  // must not advance B's clock
    f.read(1, Y);
    f.read(1, Y);
    EXPECT_EQ(f.det().threadClock(1), 1u);
    f.read(1, X); // 1 <= 1 -> race
    EXPECT_EQ(f.races(), 1u);
}

TEST(CordScenario, ProperlySynchronizedAccessesNeverReported)
{
    // The release/acquire pattern with any D: no false positives.
    for (std::uint32_t d : {1u, 4u, 16u, 256u}) {
        Feeder f(config(d));
        f.write(0, X);     // ts 1
        f.syncWrite(0, L); // wts 1, clock -> 2
        f.syncRead(1, L);  // B's clock = 1 + D
        f.read(1, X);      // (1+D) - 1 >= D -> synchronized
        f.write(1, X);
        EXPECT_EQ(f.races(), 0u) << "D = " << d;
    }
}

TEST(CordScenario, TransitiveSynchronizationThroughTwoLocks)
{
    constexpr Addr L2 = 0x5000;
    for (std::uint32_t d : {1u, 16u}) {
        Feeder f(config(d));
        f.write(0, X);      // A writes X
        f.syncWrite(0, L);  // A releases L
        f.syncRead(1, L);   // B acquires L
        f.syncWrite(1, L2); // B releases L2
        f.syncRead(2, L2);  // C acquires L2
        f.read(2, X);       // ordered transitively: no race
        EXPECT_EQ(f.races(), 0u) << "D = " << d;
    }
}

TEST(CordScenario, Figure8_SimilarClockAdvanceHidesRacesAtD1)
{
    // Both threads advance their clocks through their own (unrelated)
    // sync writes; with D = 1 the stale write to X appears
    // synchronized, with D = 16 it is detected (paper Figures 8/9).
    constexpr Addr LA = 0x6000;
    constexpr Addr LB = 0x7000;
    auto scenario = [](std::uint32_t d) {
        Feeder f(config(d));
        f.write(0, X); // ts 1
        // A performs unrelated synchronization (clock 1 -> 4).
        f.syncWrite(0, LA);
        f.syncWrite(0, LA);
        f.syncWrite(0, LA);
        // B independently advances its clock the same way.
        f.syncWrite(1, LB);
        f.syncWrite(1, LB);
        f.syncWrite(1, LB);
        // B now reads X: truly unordered w.r.t. A's write.
        f.read(1, X);
        return f.races();
    };
    EXPECT_EQ(scenario(1), 0u) << "missed with naive scalar clocks";
    EXPECT_EQ(scenario(16), 1u) << "caught with the D-margin";
}

TEST(CordScenario, Figure9_SyncReadUpdatesToWtsPlusD)
{
    Feeder f(config(4));
    f.syncWrite(0, L); // wts 1
    f.syncRead(1, L);
    EXPECT_EQ(f.det().threadClock(1), 1u + 4u);
    // Repeated reads of the same release do not inflate further.
    f.syncRead(1, L);
    EXPECT_EQ(f.det().threadClock(1), 1u + 4u);
}

TEST(CordScenario, Figure2_SecondEntryPreservesLineHistory)
{
    // A writes two words of one line, then writes the first word again
    // at a new clock.  With one timestamp per line the second word's
    // history is erased and B's race on it is missed; with two entries
    // it is kept (paper Figure 2 / Section 2.3).
    const Addr w0 = 0x1000;
    const Addr w1 = 0x1004; // same line
    auto scenario = [&](unsigned entries) {
        CordConfig cfg = config(1);
        cfg.entriesPerLine = entries;
        Feeder f(cfg);
        f.write(0, w0);
        f.write(0, w1);
        f.syncWrite(0, L); // clock 1 -> 2
        f.write(0, w0);    // new timestamp 2 on the line
        f.write(1, w1);    // races with A's ts-1 write of w1
        return f.races();
    };
    EXPECT_EQ(scenario(1), 0u) << "single entry erases history";
    EXPECT_EQ(scenario(2), 1u) << "second entry preserves history";
}

TEST(CordScenario, Figure6_DisplacedHistoryOrdersThroughMemoryTs)
{
    // A writes X, then X's line is displaced from A's cache.  B's
    // later conflicting access finds no cached timestamp; the memory
    // timestamp still orders it (clock update) but the race is NOT
    // reported (it might be false -- Section 2.5).
    CordConfig cfg = config(16);
    cfg.residency = CacheGeometry{1024, 64, 2}; // tiny: 16 lines
    Feeder f(cfg);
    f.write(0, X);
    f.thrash(0, 64); // X's history folds into the memory timestamps
    EXPECT_GT(f.det().memWriteTs(), 0u);
    const std::uint64_t racesBefore = f.races();
    const Ts64 clockBefore = f.det().threadClock(1);
    f.read(1, X); // served from "memory": ordered, not reported
    EXPECT_GT(f.det().threadClock(1), clockBefore)
        << "memory timestamp must update the clock (order-recording)";
    EXPECT_GT(f.det().stats().get("cord.suppressedMemRaces") +
                  f.det().stats().get("cord.memTsOrderUpdates"),
              0u);
    // Whatever the thrashing itself reported, the read of X must not
    // add a reported race.
    EXPECT_EQ(f.races(), racesBefore);
}

TEST(CordScenario, MemTimestampDisabledLosesOrdering)
{
    CordConfig cfg = config(16);
    cfg.residency = CacheGeometry{1024, 64, 2};
    cfg.memTimestamps = false;
    Feeder f(cfg);
    f.write(0, X);
    f.thrash(0, 64);
    const Ts64 clockBefore = f.det().threadClock(1);
    f.read(1, X);
    EXPECT_EQ(f.det().threadClock(1), clockBefore)
        << "without memory timestamps the ordering is silently lost";
}

TEST(CordScenario, Migration_SelfRaceSuppressedByClockBump)
{
    // Thread 0 writes X on core 0, then migrates to core 1 and writes
    // X again: its own old timestamp looks like another thread's.
    auto scenario = [&](bool bump) {
        CordConfig cfg = config(16);
        cfg.migrationIncrement = bump;
        Feeder f(cfg);
        f.access(0, X, AccessKind::DataWrite, 0);
        f.access(2, Y, AccessKind::DataWrite, 1); // occupy core 1
        f.access(0, X, AccessKind::DataWrite, 1); // migrated
        return f.races();
    };
    EXPECT_EQ(scenario(true), 0u);
    EXPECT_EQ(scenario(false), 1u)
        << "without the bump the thread races with itself "
           "(paper Section 2.7.4)";
}

TEST(CordScenario, FilterBitsDoNotChangeDetection)
{
    auto scenario = [&](bool filters) {
        CordConfig cfg = config(16);
        cfg.checkFilterBits = filters;
        Feeder f(cfg);
        // Repeated private-ish reads with one real race mixed in.
        for (int rep = 0; rep < 4; ++rep) {
            for (unsigned w = 0; w < kWordsPerLine; ++w)
                f.read(1, 0x9000 + w * kWordBytes);
        }
        f.write(0, X);
        f.read(1, X);
        for (int rep = 0; rep < 4; ++rep) {
            for (unsigned w = 0; w < kWordsPerLine; ++w)
                f.write(2, 0xa000 + w * kWordBytes);
        }
        return std::make_pair(
            f.races(), f.det().stats().get("cord.filteredChecks"));
    };
    const auto with = scenario(true);
    const auto without = scenario(false);
    EXPECT_EQ(with.first, without.first);
    EXPECT_EQ(with.first, 1u);
    EXPECT_EQ(without.second, 0u);
}

TEST(CordScenario, RmwActsAsSyncReadThenWrite)
{
    Feeder f(config(4));
    f.syncWrite(0, L); // wts 1, clock(0) -> 2
    // Thread 1 performs a CAS: published as SyncRead then SyncWrite.
    f.syncRead(1, L);  // clock(1) = 1 + 4 = 5
    f.syncWrite(1, L); // wts 5, clock(1) -> 6
    EXPECT_EQ(f.det().threadClock(1), 6u);
    // Thread 2 acquiring afterwards sees the latest write ts.
    f.syncRead(2, L);
    EXPECT_EQ(f.det().threadClock(2), 5u + 4u);
    EXPECT_EQ(f.races(), 0u);
}

TEST(CordScenario, OrderLogCoversAllInstructions)
{
    Feeder f(config(16));
    f.write(0, X);
    f.syncWrite(0, L);
    f.syncRead(1, L);
    f.read(1, X);
    f.write(1, Y);
    f.det().onThreadEnd(0, 2);
    f.det().onThreadEnd(1, 3);
    std::uint64_t perThread[2] = {0, 0};
    for (const auto &e : f.det().orderLog().entries())
        perThread[e.tid] += e.instrs;
    EXPECT_EQ(perThread[0], 2u);
    EXPECT_EQ(perThread[1], 3u);
}

TEST(CordScenario, WalkerEvictsStaleTimestamps)
{
    CordConfig cfg = config(16);
    cfg.numThreads = 2; // idle threads would pin the minimum clock
    cfg.walkPeriodEvents = 64;
    cfg.staleThreshold = 1u << 10; // evict aggressively for the test
    Feeder f(cfg);
    f.write(0, X); // old timestamp
    // Thread 0's clock races ahead through sync writes.
    for (int i = 0; i < 3000; ++i)
        f.syncWrite(0, L);
    // Thread 1 keeps the walker's min-clock current.
    for (int i = 0; i < 200; ++i)
        f.syncRead(1, L);
    EXPECT_GT(f.det().stats().get("cord.walkerEvictions"), 0u);
    EXPECT_EQ(f.det().stats().get("cord.windowViolations"), 0u);
}

TEST(CordScenario, CoherenceInvalidationFoldsHistory)
{
    Feeder f(config(16));
    f.read(1, X);  // B's read timestamp cached on core 1
    f.write(0, X); // invalidates core 1's copy (race vs the read)
    EXPECT_GT(f.det().stats().get("cord.coherenceInvalidations"), 0u);
}

TEST(CordScenario, WriteChecksBothReadAndWriteHistory)
{
    // write-after-read is a conflict too (paper Section 2.1).
    Feeder f(config(1));
    f.read(0, X);
    f.write(1, X);
    EXPECT_EQ(f.races(), 1u);
}

TEST(CordScenario, SyncReadFromMemoryUsesPlusOneNotPlusD)
{
    // Paper Figure 7: a sync variable read from memory updates the
    // clock to memWriteTs + 1, not + D (the memory timestamp may stem
    // from an unrelated write-back).
    CordConfig cfg = config(16);
    cfg.residency = CacheGeometry{1024, 64, 2};
    Feeder f(cfg);
    f.syncWrite(0, L); // L.wts = 1
    f.thrash(0, 64);   // displace L: memWriteTs >= 1
    const Ts64 memW = f.det().memWriteTs();
    ASSERT_GT(memW, 0u);
    f.syncRead(1, L);  // from "memory"
    EXPECT_EQ(f.det().threadClock(1), memW + 1)
        << "memory-timestamp sync-read updates use +1 (Figure 7)";
}

TEST(CordScenario, MemoryTimestampsDistinguishReadsAndWrites)
{
    // A read through memory compares only against the memory *write*
    // timestamp: displaced read history must not order later readers.
    CordConfig cfg = config(16);
    cfg.residency = CacheGeometry{1024, 64, 2};
    Feeder f(cfg);
    f.read(0, X);    // read history only
    f.thrash(0, 64); // folds into memReadTs
    EXPECT_GT(f.det().memReadTs(), 0u);
    EXPECT_GE(f.det().memWriteTs(), f.det().memReadTs())
        << "thrash writes fold into the write timestamp too";
    // A *writer* must be ordered after the displaced reads.
    const Ts64 before = f.det().threadClock(1);
    f.write(1, X);
    EXPECT_GT(f.det().threadClock(1), before);
}

TEST(CordScenario, ExactMarginBoundary)
{
    // The release/acquire margin is exactly D: a conflict precisely D
    // below the clock is synchronized; D-1 below is reported.
    Feeder f(config(8));
    f.write(0, X);     // ts 1
    f.syncWrite(0, L); // wts 1, clock(0) -> 2
    f.write(0, Y);     // ts 2
    f.syncRead(1, L);  // clock(1) = 1 + 8 = 9
    f.read(1, X);      // 9 - 1 = 8 >= D: synchronized
    EXPECT_EQ(f.races(), 0u);
    f.read(1, Y);      // 9 - 2 = 7 < D: reported
    EXPECT_EQ(f.races(), 1u);
}

TEST(CordScenario, SpinningReaderOrdersTheLockHandoff)
{
    // A waiter's spin reads are timestamped; the releaser's next sync
    // write must be ordered after them (this is what makes replay of
    // spin locks exact; see DESIGN.md Section 5.4).
    Feeder f(config(4));
    f.syncRead(1, L);  // spinning reads of the (free) lock word
    f.syncRead(1, L);
    const Ts64 readerClock = f.det().threadClock(1);
    f.syncWrite(0, L); // the write conflicts with those reads
    // Post-increment clock must exceed the reader's timestamp + 1.
    EXPECT_GT(f.det().threadClock(0), readerClock + 1);
}

TEST(CordScenario, StatsExposeTheProtocol)
{
    Feeder f(config(16));
    f.write(0, X);
    f.read(1, X);
    f.det().onThreadEnd(0, 1);
    f.det().onThreadEnd(1, 1);
    f.det().finish();
    EXPECT_GT(f.det().stats().get("cord.raceChecks"), 0u);
    EXPECT_GT(f.det().stats().get("cord.orderRaces"), 0u);
    EXPECT_EQ(f.det().stats().get("cord.dataRaces"), 1u);
    EXPECT_GT(f.det().stats().get("cord.logEntries"), 0u);
    EXPECT_EQ(f.det().stats().get("cord.logWireBytes"),
              f.det().orderLog().wireBytes());
}

TEST(CordScenario, TrafficSinkReceivesRaceChecks)
{
    struct Sink : CordTrafficSink
    {
        unsigned checks = 0;
        unsigned memTs = 0;
        void raceCheck(Tick, Addr, std::span<const CoreId>) override
        {
            ++checks;
        }
        void memTsBroadcast(Tick, FoldCause, Addr) override { ++memTs; }
    };
    CordConfig cfg = config(16);
    cfg.residency = CacheGeometry{1024, 64, 2};
    Feeder f(cfg);
    Sink sink;
    f.det().setTrafficSink(&sink);
    f.read(1, X);      // share the line: no write filter for core 0
    f.write(0, X);     // miss: the check piggybacks (not charged)
    f.syncWrite(0, L); // clock change invalidates the quick-check bit
    f.write(0, X);     // cache hit needing a re-check: charged
    f.thrash(0, 64);   // displacements -> memory timestamp broadcasts
    EXPECT_GT(sink.checks, 0u);
    EXPECT_GT(sink.memTs, 0u);
    f.det().setTrafficSink(nullptr);
}

TEST(CordScenario, TrafficSinkNamesSharersPast64Cores)
{
    // A charged check names every remote sharer, cores >= 64 included.
    struct Sink : CordTrafficSink
    {
        std::vector<std::vector<CoreId>> checks;
        void raceCheck(Tick, Addr, std::span<const CoreId> sharers) override
        {
            checks.emplace_back(sharers.begin(), sharers.end());
        }
        void memTsBroadcast(Tick, FoldCause, Addr) override {}
    };
    CordConfig cfg = config(16);
    cfg.numCores = 72;
    cfg.numThreads = 3;
    Feeder f(cfg);
    Sink sink;
    f.det().setTrafficSink(&sink);
    f.access(0, X, AccessKind::DataWrite, 0);
    f.access(0, L, AccessKind::SyncWrite, 0);
    f.access(1, L, AccessKind::SyncRead, 3);
    f.access(1, X, AccessKind::DataRead, 3);
    f.access(2, L, AccessKind::SyncRead, 70);
    f.access(2, X, AccessKind::DataRead, 70);
    const std::size_t before = sink.checks.size();
    f.access(0, X, AccessKind::DataWrite, 0); // hit: charged
    f.det().setTrafficSink(nullptr);
    ASSERT_EQ(sink.checks.size(), before + 1);
    EXPECT_EQ(sink.checks.back(), (std::vector<CoreId>{3, 70}));
}

} // namespace
} // namespace cord
