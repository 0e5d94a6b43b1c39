/**
 * @file
 * The Ideal detector: complete and precise happens-before data race
 * detection (paper Section 4: "the Ideal configuration which detects
 * all dynamically occurring data races").
 *
 * It keeps, for every word ever accessed and every thread, the epoch of
 * the thread's last read and last write of that word (the FastTrack
 * epoch representation of per-<location,thread> last-access vector
 * timestamps, which is complete for race detection because same-thread
 * accesses are totally ordered by program order).  Thread vector clocks
 * evolve through synchronization only -- data races never introduce
 * ordering -- so every racing pair exposed by the execution's causality
 * is found.  Residency is unlimited, exactly like the paper's Ideal
 * runs (which exceeded 2 GB on some inputs).
 */

#ifndef CORD_CORD_IDEAL_DETECTOR_H
#define CORD_CORD_IDEAL_DETECTOR_H

#include <cstdint>
#include <vector>

#include "cord/detector.h"
#include "cord/vector_clock.h"
#include "sim/flat_map.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cord
{

/** Complete happens-before race detector (ground truth). */
class IdealDetector : public Detector
{
  public:
    explicit IdealDetector(unsigned numThreads,
                           std::string name = "Ideal");

    void onAccess(const MemEvent &ev) override;

    /** Core-agnostic (histories are global), but thread-sized. */
    DetectorGeometry geometry() const override { return {0, numThreads_}; }

    /** Current vector clock of @p tid. */
    const VectorClock &threadClock(ThreadId tid) const { return vc_[tid]; }

    /** Number of distinct words tracked (memory footprint insight). */
    std::size_t trackedWords() const { return wordRow_.size(); }

  private:
    /**
     * The word's row of epochs_: numThreads last-write epochs followed
     * by numThreads last-read epochs, 0 = never.  Allocated zeroed on
     * the word's first access.
     */
    std::uint32_t *history(Addr wordA);

    unsigned numThreads_;
    Counter dataRaces_; //!< pre-registered hot-path handle (stats.h)
    std::vector<VectorClock> vc_;
    FlatAddrMap<VectorClock> syncVc_; //!< per sync variable
    FlatAddrMap<std::uint32_t> wordRow_; //!< word -> row of epochs_
    std::vector<std::uint32_t> epochs_;  //!< 2 * numThreads per row
};

} // namespace cord

#endif // CORD_CORD_IDEAL_DETECTOR_H
