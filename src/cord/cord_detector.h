/**
 * @file
 * The CORD mechanism (paper Section 2): combined order-recording and
 * data race detection with scalar clocks, two timestamps per cached
 * line with per-word access bits, check-filter bits, main-memory
 * timestamps, sync-read clock updates with margin D, and a cache walker
 * bounding timestamp staleness for the 16-bit sliding window.
 * Race checks and a write's invalidations visit only the remote caches
 * holding the line (HistoryDirectory, cord/history_cache.h); coherence
 * changes only the bus charge: a broadcast, or one probe per sharer.
 */

#ifndef CORD_CORD_CORD_DETECTOR_H
#define CORD_CORD_CORD_DETECTOR_H

#include <array>
#include <cstdint>
#include <vector>

#include "cord/clock.h"
#include "cord/detector.h"
#include "cord/history_cache.h"
#include "cord/order_log.h"
#include "mem/geometry.h"
#include "mem/machine_config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cord
{

/** Configuration of one CORD instance (ablation knobs included). */
struct CordConfig
{
    unsigned numCores = kDefaultNumCores;
    unsigned numThreads = kDefaultNumThreads;

    /** Sync-read clock-update margin D (paper Section 2.6). */
    std::uint32_t d = 16;

    /** History residency: nullopt = unbounded (InfCache-like). */
    bool infiniteResidency = false;
    CacheGeometry residency = CacheGeometry::paperL2();

    /** Timestamps kept per cached line (paper: 2; ablation: 1). */
    unsigned entriesPerLine = 2;

    /** Main-memory timestamp mechanism (Section 2.5). */
    bool memTimestamps = true;

    /**
     * Main-memory read/write timestamp banks.  1 reproduces the
     * paper's snooping design: a single replicated pair covering all
     * of memory.  A directory machine instead keeps one pair per
     * directory slice (line-interleaved), so a displaced history only
     * coarsens ordering for lines homed on the same slice and the
     * update is a directed slice message, not a broadcast.
     */
    unsigned memTsBanks = 1;

    /**
     * Derive geometry from the machine: numCores, numThreads, and
     * memTs banking (one bank per directory slice on Directory
     * machines, the paper's single replicated pair under snooping).
     * The single source of truth every spec/driver goes through.
     */
    void deriveGeometry(const MachineConfig &m, unsigned threads);

    /** Default CORD configuration for @p m (see deriveGeometry). */
    static CordConfig forMachine(const MachineConfig &m, unsigned threads);

    /** Per-line check-filter bits (Section 2.7.2). */
    bool checkFilterBits = true;

    /** Clock bump by D on thread migration (Section 2.7.4). */
    bool migrationIncrement = true;

    /** Cache-walker period, in observed access events (Section 2.7.5). */
    std::uint64_t walkPeriodEvents = 4096;

    /** Entries older than this relative to the slowest thread clock
     *  are evicted by the walker to stay inside the sliding window. */
    std::uint32_t staleThreshold = 1u << 14;
};

/**
 * CORD detector / order recorder.
 *
 * Consumes the committed access stream; maintains per-core functional
 * history caches; reports data races (never through main-memory
 * timestamps -- no false positives) and writes the order log.
 */
class CordDetector : public Detector
{
  public:
    CordDetector(const CordConfig &cfg, std::string name = "CORD");

    void onAccess(const MemEvent &ev) override;
    void onThreadEnd(ThreadId tid, std::uint64_t totalInstrs) override;
    void finish() override;

    /** Bind a sink for timing-coupled runs (may be nullptr). */
    void setTrafficSink(CordTrafficSink *sink) { sink_ = sink; }

    const OrderLog &orderLog() const { return log_; }

    /** Current logical clock of @p tid (epoch-extended). */
    Ts64 threadClock(ThreadId tid) const { return writers_[tid].clock(); }

    /** Main-memory read/write timestamps (Section 2.5): the maximum
     *  over all banks (equal to the bank value when memTsBanks == 1). */
    Ts64 memReadTs() const;
    Ts64 memWriteTs() const;

    /** Banked main-memory timestamps of @p addr's home slice. */
    Ts64 memReadTs(Addr addr) const { return memReadTs_[memTsBank(addr)]; }
    Ts64 memWriteTs(Addr addr) const
    {
        return memWriteTs_[memTsBank(addr)];
    }

    /** Directory slice (bank) that homes @p addr (line-interleaved). */
    unsigned
    memTsBank(Addr addr) const
    {
        return static_cast<unsigned>((lineAddr(addr) / kLineBytes) %
                                     memTsBanks_);
    }

    DetectorGeometry
    geometry() const override
    {
        return {cfg_.numCores, cfg_.numThreads};
    }

    const CordConfig &config() const { return cfg_; }

  private:
    /** One access-history entry: a timestamp plus per-word R/W bits. */
    struct Entry
    {
        Ts64 ts = 0;                  //!< epoch-extended shadow
        std::uint16_t readBits = 0;   //!< per-word "read at ts" bits
        std::uint16_t writeBits = 0;  //!< per-word "written at ts" bits
        bool valid = false;

        Ts16 wireTs() const { return static_cast<Ts16>(ts); }
    };

    /** Per-line CORD state (2 entries, newest first; filter bits). */
    struct LineState
    {
        Entry e[2];
        bool filterR = false;
        bool filterW = false;
    };

    /**
     * What the snoop (race check) learned from remote caches.  A
     * default-constructed result is the empty snoop; conflictTs is left
     * uninitialized because only [0, numConflicts) is ever read.
     */
    struct SnoopResult
    {
        bool anyRemoteLine = false;    //!< some remote cache has the line
        bool haveConflict = false;
        Ts64 maxConflictTs = 0;        //!< max ts conflicting on the word
        bool haveWriteTs = false;
        Ts64 maxWriteTs = 0;           //!< max remote write ts on the word
        bool lineClearForRead = true;  //!< no remote write history in line
        bool lineClearForWrite = true; //!< no remote history at all in line
        std::array<Ts64, 64> conflictTs; //!< individual conflicting ts
        unsigned numConflicts = 0;
    };

    /** Race check for (core, word) against the remote sharers'
     *  histories (a broadcast snoop under snooping, point-to-point
     *  probes under a directory; the same answer either way).
     *  @p sharers are @p addr's.  Accumulates into @p sr, which must
     *  be default-constructed. */
    void snoop(CoreId core, Addr addr,
               HistoryDirectory<LineState>::Sharers sharers, bool isWrite,
               Ts64 clock, SnoopResult &sr);

    /** Fold a displaced/invalidated line history into the main-memory
     *  timestamp bank homing @p lineA, notifying the sink on change
     *  (Section 2.5); @p cause records which mechanism displaced the
     *  history (attribution). */
    void foldIntoMemTs(const LineState &ls, Addr lineA, Tick now,
                       FoldCause cause);

    /** Insert the committed access into the local history: into
     *  @p local, the line onAccess found resident, or else a fresh
     *  line. */
    void timestampLocal(CoreId core, Addr addr, LineState *local,
                        bool isWrite, Ts64 clock,
                        const SnoopResult *snoopRes, Tick now);

    /** Periodic stale-timestamp eviction (Section 2.7.5). */
    void runWalker(Tick now);

    /** Advance @p wr to @p newClock at @p instrBoundary, recording the
     *  clock-jump histogram and the trace events (clock update plus any
     *  order-log append it produced). */
    void commitClockChange(OrderLogWriter &wr, Ts64 newClock,
                           std::uint64_t instrBoundary,
                           const MemEvent &ev);

    /** Minimum clock across threads that are still running. */
    Ts64 minActiveClock() const;

    CordConfig cfg_;
    CordTrafficSink *sink_ = nullptr;
    /** The remote sharers of a charged race check, filled only while
     *  a sink is bound (reused, so charging never allocates). */
    std::vector<CoreId> probes_;

    HistoryDirectory<LineState> histories_;       //!< per-core + sharers
    std::vector<OrderLogWriter> writers_;         //!< one per thread
    std::vector<bool> threadDone_;
    std::vector<ThreadId> lastTid_;               //!< per core, migration

    OrderLog log_;
    std::vector<Ts64> memReadTs_;  //!< one per bank (directory slice)
    std::vector<Ts64> memWriteTs_;
    unsigned memTsBanks_ = 1;

    /** Accesses left until the next periodic walk; counting down
     *  fires on every walkPeriodEvents-th access, like a modulo. */
    std::uint64_t walkCountdown_ = 0;
    Ts64 maxClockAtLastWalk_ = 0;
    Ts64 maxClock_ = 1;

    /** Hot-path metrics resolved once at construction (stats.h):
     *  every per-access increment goes through a pre-registered handle
     *  so the inner loop never pays a string-keyed map lookup. */
    Counter raceChecks_;
    Counter dataRaces_;
    Counter orderRaces_;
    Counter memTsUpdates_;
    Counter windowViolations_;
    Counter coherenceInvalidations_;
    Counter lineDisplacements_;
    Counter entryDisplacements_;
    Counter walkerEvictions_;
    Counter migrationBumps_;
    Counter filteredChecks_;
    Counter memTsOrderUpdates_;
    Counter suppressedMemRaces_;
    Counter memServedOrderUpdates_;
    Histogram clockJumpHist_;
    Gauge occupancyGauge_;
};

} // namespace cord

#endif // CORD_CORD_CORD_DETECTOR_H
