/**
 * @file
 * Campaign flight recorder: a bounded, crash-safe JSONL stream of
 * per-run progress and health events for long campaigns
 * (`cordsim --campaign --heartbeat FILE`).
 *
 * Each line is one self-contained JSON object ("cord-heartbeat-v1"),
 * flushed as soon as it is written so a killed or wedged campaign
 * leaves a readable record up to the moment it died.  `cordstat watch`
 * tails and summarizes the stream (progress, stragglers, timeouts).
 *
 * Event vocabulary:
 *   campaign_begin  workload, runs, injections, schedules, jobs
 *   run_started     flat run index (+ injection/schedule)
 *   run_finished    completed/timedOut, wall seconds, ticks, races
 *   campaign_end    completed/timedOut totals, dropped-event count,
 *                   trunkSeconds, forks, childPeakRssMb
 *
 * Ordering depends on the campaign's fan-out (docs/INTERNALS.md §5).
 * Fresh runs on the thread pool: run_started is written by a worker as
 * it picks the run up (wall-clock order, not deterministic) and
 * run_finished by the in-order merge (submission order).  Runs forked
 * from the trunk (harness/trunk.h): run_started is written when the
 * child is forked, in the order the trunk reaches the picked
 * instances, and run_finished as the child's record arrives; its
 * wallSeconds covers only the child's suffix of the run, since the
 * shared prefix ran once in the trunk (campaign_end's trunkSeconds).
 * Injections that picked the same instance share one child and get
 * one run_started/run_finished pair each.  The heartbeat is
 * deliberately OUTSIDE the determinism contract -- campaign manifests
 * stay byte-identical for any `--jobs N` whether or not a recorder is
 * attached.
 *
 * Bounding: an optional byte budget stops the stream from growing
 * without limit on huge campaigns.  When the budget would be exceeded,
 * per-run events are dropped (and counted); campaign_end is always
 * written and reports the drop count, so truncation is visible.
 */

#ifndef CORD_HARNESS_FLIGHT_H
#define CORD_HARNESS_FLIGHT_H

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace cord
{

/** Heartbeat schema identifier (bump on breaking changes). */
inline constexpr const char *kHeartbeatSchema = "cord-heartbeat-v1";

/** Thread-safe JSONL heartbeat writer (see file comment). */
class FlightRecorder
{
  public:
    /** Default byte budget: 64 MiB of heartbeat per campaign. */
    static constexpr std::uint64_t kDefaultMaxBytes = 64ull << 20;

    /**
     * Open @p path for writing (truncates).  ok() reports failure;
     * a failed recorder swallows events instead of crashing the
     * campaign it was meant to observe.
     */
    explicit FlightRecorder(const std::string &path,
                            std::uint64_t maxBytes = kDefaultMaxBytes);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    bool ok() const { return f_ != nullptr; }

    void campaignBegin(const std::string &workload, unsigned runs,
                       unsigned injections, unsigned schedules,
                       unsigned jobs);

    void runStarted(unsigned runIndex, unsigned injection,
                    unsigned schedule);

    void runFinished(unsigned runIndex, unsigned injection,
                     unsigned schedule, bool completed, bool timedOut,
                     double wallSeconds, std::uint64_t ticks,
                     std::uint64_t idealRaces);

    /** @p trunkSeconds, @p forks and @p childPeakRssMb describe the
     *  forked fan-out (harness/trunk.h; all 0 for fresh runs). */
    void campaignEnd(unsigned completedRuns, unsigned timedOutRuns,
                     double trunkSeconds, unsigned forks,
                     double childPeakRssMb);

    /** Events written so far (excluding dropped ones). */
    std::uint64_t written() const { return written_; }

    /** Per-run events dropped to stay under the byte budget. */
    std::uint64_t dropped() const { return dropped_; }

  private:
    /** Append one line; @p mandatory lines ignore the byte budget. */
    void emit(const std::string &line, bool mandatory);

    mutable std::mutex mu_;
    std::FILE *f_ = nullptr;
    std::uint64_t maxBytes_;
    std::uint64_t bytes_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t written_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace cord

#endif // CORD_HARNESS_FLIGHT_H
