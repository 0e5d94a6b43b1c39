/**
 * @file
 * CORD-like detector using classical vector clocks (the paper's
 * comparison configurations, Section 4.3):
 *
 *  - InfCache: vector clocks, unlimited residency, two timestamps/line
 *  - L2Cache:  vector clocks, L2-sized residency, two timestamps/line
 *  - L1Cache:  vector clocks, L1-sized residency, two timestamps/line
 *
 * The structure mirrors CordDetector but comparisons use exact vector
 * ordering instead of scalar clocks with margin D.  Like CORD, data
 * races discovered through the (vector) main-memory timestamp are
 * suppressed to avoid false positives.  Histories live in the same
 * HistoryDirectory (cord/history_cache.h) as CORD's, so a check and a
 * write's invalidations visit only the remote caches holding the line.
 */

#ifndef CORD_CORD_VC_DETECTOR_H
#define CORD_CORD_VC_DETECTOR_H

#include <cstdint>
#include <vector>

#include "cord/detector.h"
#include "cord/history_cache.h"
#include "cord/vector_clock.h"
#include "mem/geometry.h"
#include "mem/machine_config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cord
{

/** Configuration of a vector-clock detector instance. */
struct VcConfig
{
    unsigned numCores = kDefaultNumCores;
    unsigned numThreads = kDefaultNumThreads;

    /** Unbounded residency (InfCache). */
    bool infiniteResidency = false;
    CacheGeometry residency = CacheGeometry::paperL2();

    unsigned entriesPerLine = 2;

    /** Vector analog of the main-memory timestamps. */
    bool memTimestamps = true;

    /** Derive geometry from the machine (the single source of truth,
     *  mirroring CordConfig::deriveGeometry). */
    void
    deriveGeometry(const MachineConfig &m, unsigned threads)
    {
        numCores = m.numCores;
        numThreads = threads;
    }

    static VcConfig
    forMachine(const MachineConfig &m, unsigned threads)
    {
        VcConfig c;
        c.deriveGeometry(m, threads);
        return c;
    }
};

/** Vector-clock CORD-like race detector. */
class VcDetector : public Detector
{
  public:
    VcDetector(const VcConfig &cfg, std::string name = "VC");

    void onAccess(const MemEvent &ev) override;

    DetectorGeometry
    geometry() const override
    {
        return {cfg_.numCores, cfg_.numThreads};
    }

    const VcConfig &config() const { return cfg_; }

    /** Current vector clock of @p tid. */
    const VectorClock &threadClock(ThreadId tid) const { return vc_[tid]; }

  private:
    struct Entry
    {
        VectorClock vc;
        std::uint64_t seq = 0; //!< recency for displacement decisions
        std::uint16_t readBits = 0;
        std::uint16_t writeBits = 0;
        bool valid = false;
    };

    struct LineState
    {
        Entry e[2];
    };

    /** Join a displaced entry into the memory vector timestamps. */
    void foldIntoMemVc(const Entry &e);
    void foldIntoMemVc(const LineState &ls);
    /** Insert the committed access into @p local, the line onAccess
     *  found resident, or else a fresh line. */
    void timestampLocal(CoreId core, Addr addr, LineState *local,
                        bool isWrite, const VectorClock &vc);

    VcConfig cfg_;
    HistoryDirectory<LineState> histories_;
    std::vector<VectorClock> vc_;
    VectorClock memReadVc_;
    VectorClock memWriteVc_;
    std::uint64_t seq_ = 0;

    /** Hot-path metrics resolved once at construction (stats.h). */
    Counter dataRaces_;
    Counter orderRaces_;
    Counter lineDisplacements_;
    Counter entryDisplacements_;
    Counter memVcJoins_;
};

} // namespace cord

#endif // CORD_CORD_VC_DETECTOR_H
