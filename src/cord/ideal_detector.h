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
 *
 * This is the code base's one race engine: observe() also drives the
 * offline epoch analyzer and, under the sync rule SyncOrder::LastWriter,
 * the race predictor (analysis/epoch_analyzer.h).  Per-word state
 * adapts to sharing:
 *
 *  - a word only one thread has touched keeps that thread's last read
 *    and last write Epoch inline and is checked in O(1) -- the
 *    FastTrack same-thread fast path, which covers most accesses;
 *  - when a second thread arrives the word is promoted to a pooled row
 *    of per-thread epochs plus reader and writer bitmasks, so a race
 *    check visits only threads that touched the word (up to 64
 *    threads; wider machines scan every thread).
 *
 * Word states live in a page-granular table (sim/paged_table.h) keyed
 * by word index, so the common access reaches its word with a compare
 * and an array index; a sync variable's clock is found through its
 * word's entry too.
 *
 * analysis/hb_analyzer.h's full-vector HbAnalysis is the reference
 * the happens-before uses are tested against.
 */

#ifndef CORD_CORD_IDEAL_DETECTOR_H
#define CORD_CORD_IDEAL_DETECTOR_H

#include <cstdint>
#include <vector>

#include "cord/detector.h"
#include "cord/vector_clock.h"
#include "sim/logging.h"
#include "sim/paged_table.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cord
{

/** How a sync release publishes into the variable's clock; an acquire
 *  joins that clock under both rules. */
enum class SyncOrder
{
    HappensBefore, //!< join: an acquire learns every earlier release
    LastWriter,    //!< overwrite: only the last one (the predictor's W)
};

/** Complete happens-before race detector (ground truth). */
class IdealDetector : public Detector
{
  public:
    explicit IdealDetector(unsigned numThreads,
                           std::string name = "Ideal");

    void onAccess(const MemEvent &ev) override;

    /**
     * Apply one committed access to the order's state.  A sync acquire
     * joins the variable's clock; a release publishes into it by
     * @p Order's rule, then ticks.  A data access calls
     * @p onRace(u, otherWasWrite) once per last access of another
     * thread u that conflicts with @p ev and is not ordered before it
     * -- in ascending u, the write check before the read check -- and
     * then records @p ev's epoch.
     */
    template <SyncOrder Order = SyncOrder::HappensBefore,
              typename OnRace>
    void observe(const MemEvent &ev, OnRace &&onRace);

    /** Core-agnostic (histories are global), but thread-sized. */
    DetectorGeometry geometry() const override { return {0, numThreads_}; }

    /** Current vector clock of @p tid. */
    const VectorClock &threadClock(ThreadId tid) const { return vc_[tid]; }

    /** Number of distinct words with a data access (memory footprint
     *  insight). */
    std::size_t trackedWords() const { return trackedWords_; }

  private:
    /**
     * Per-word history.  Exclusive mode keeps the one accessing
     * thread's last read and write inline; shared mode indexes a row
     * of epochs_ and keeps, in the same 16 bytes, which threads have a
     * recorded read or write.  A word no data access has reached is
     * exclusive with neither epoch valid.
     */
    struct WordState
    {
        static constexpr std::uint32_t kExclusive = 0xffffffffu;
        static constexpr std::uint32_t kNoSync = 0xffffffffu;

        struct Last
        {
            Epoch read, write;
        };

        struct Seen
        {
            std::uint64_t readers, writers;
        };

        /** kExclusive, or where the word's row starts in epochs_. */
        std::uint32_t base = kExclusive;

        /** kNoSync, or the word's clock in syncVc_ once a sync access
         *  reached it. */
        std::uint32_t sync = kNoSync;

        /** promote() switches the word from last to seen. */
        union
        {
            Last last = {}; //!< exclusive mode: the owner's accesses
            Seen seen;      //!< shared mode: thread bitmasks
        };
    };
    static_assert(sizeof(WordState) == 24, "a word's state is 24 bytes");

    /** Acquire (join) or release (publish, then tick) on a sync word. */
    template <SyncOrder Order>
    void synchronize(const MemEvent &ev);

    /** Record one racing pair of @p ev.  Out of line: races are rare,
     *  and a copy inlined at each of observe()'s four race sites made
     *  the hot path measurably slower. */
    [[gnu::noinline]] void reportRace(const MemEvent &ev);

    /** Move exclusive @p w, owned by @p owner, to a fresh row. */
    void promote(WordState &w, ThreadId owner);

    unsigned numThreads_;
    bool useMasks_; //!< numThreads_ <= 64
    Counter dataRaces_; //!< pre-registered hot-path handle (stats.h)
    std::vector<VectorClock> vc_;
    std::vector<VectorClock> syncVc_; //!< per sync variable
    /** By word index.  128 words (512 bytes of address space, 3KB of
     *  state) per page keep the sparse words of the server apps
     *  cheap. */
    PagedTable<WordState, 128> words_;
    std::size_t trackedWords_ = 0;
    /** Shared-mode rows: numThreads last-write epochs followed by
     *  numThreads last-read epochs, 0 = never. */
    std::vector<std::uint32_t> epochs_;
};

template <SyncOrder Order, typename OnRace>
void
IdealDetector::observe(const MemEvent &ev, OnRace &&onRace)
{
    cord_assert(ev.tid < numThreads_, "unknown thread ", ev.tid);
    if (ev.isSync()) {
        // Synchronization maintains the order; it is never itself
        // reported as a data race.
        synchronize<Order>(ev);
        return;
    }

    const unsigned n = numThreads_;
    const VectorClock &tvc = vc_[ev.tid];
    const std::uint32_t own = tvc[ev.tid];
    WordState &w = words_[ev.addr / kWordBytes];

    if (w.base == WordState::kExclusive) {
        ThreadId owner = ev.tid;
        if (w.last.write.valid())
            owner = w.last.write.tid();
        else if (w.last.read.valid())
            owner = w.last.read.tid();
        else
            ++trackedWords_; // the word's first data access
        if (owner == ev.tid) {
            // Same-thread fast path: program order, no race possible.
            Epoch &last = ev.isWrite() ? w.last.write : w.last.read;
            if (last != Epoch(ev.tid, own))
                last = Epoch(ev.tid, own);
            return;
        }
        // A second thread arrives: check against the one prior
        // accessor, then promote.
        if (!tvc.knows(w.last.write))
            onRace(owner, true);
        if (ev.isWrite() && !tvc.knows(w.last.read))
            onRace(owner, false);
        promote(w, owner);
    } else {
        // A conflicting last access by another thread whose epoch the
        // current thread has not yet acquired is concurrent.
        const std::uint32_t *we = &epochs_[w.base];
        const std::uint32_t *re = we + n;
        auto check = [&](ThreadId u) {
            if (u == ev.tid)
                return;
            if (we[u] != 0 && tvc[u] < we[u])
                onRace(u, true);
            if (ev.isWrite() && re[u] != 0 && tvc[u] < re[u])
                onRace(u, false);
        };
        if (useMasks_) {
            std::uint64_t m = ev.isWrite()
                                  ? (w.seen.writers | w.seen.readers)
                                  : w.seen.writers;
            while (m) {
                check(static_cast<ThreadId>(__builtin_ctzll(m)));
                m &= m - 1;
            }
        } else {
            for (ThreadId u = 0; u < n; ++u)
                check(u);
        }
    }

    // Record this access's epoch.  Like the fast path, an unchanged
    // epoch is not rewritten: a forked campaign child then copies only
    // the pages of state its suffix actually changes.
    std::uint32_t &last = epochs_[w.base + (ev.isWrite() ? 0 : n) + ev.tid];
    if (last != own) {
        last = own;
        (ev.isWrite() ? w.seen.writers : w.seen.readers) |=
            1ull << (ev.tid & 63);
    }
}

} // namespace cord

#endif // CORD_CORD_IDEAL_DETECTOR_H
