/**
 * @file
 * Access-trace tooling: record the committed access stream of a run to
 * a compact binary buffer or file, and re-drive detectors from it
 * offline.  Useful for (a) regression-testing detectors on frozen
 * interleavings and (b) comparing many detector configurations without
 * re-simulating the machine.
 */

#ifndef CORD_HARNESS_TRACE_H
#define CORD_HARNESS_TRACE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cord/detector.h"
#include "mem/access.h"

namespace cord
{

/**
 * A recorded access trace: every committed access in commit order,
 * then one record per thread end.
 *
 * A trace's threads are its thread-end records.  A trace with n of
 * them ends threads 0..n-1 exactly once each, and none of its accesses
 * names a thread >= n.  The trace of every completed run meets this
 * rule and decodeTrace refuses any file that does not, so the offline
 * analyzers take their thread count from threads() alone.
 */
struct DecodedTrace
{
    std::vector<MemEvent> events;
    std::vector<std::pair<ThreadId, std::uint64_t>> threadEnds;

    /** The run's thread count: one thread end per thread. */
    unsigned
    threads() const
    {
        return static_cast<unsigned>(threadEnds.size());
    }
};

/** A detector that records every committed access into a trace. */
class TraceRecorder : public Detector
{
  public:
    TraceRecorder() : Detector("trace") {}

    void
    onAccess(const MemEvent &ev) override
    {
        trace_.events.push_back(ev);
    }

    void
    onThreadEnd(ThreadId tid, std::uint64_t totalInstrs) override
    {
        trace_.threadEnds.emplace_back(tid, totalInstrs);
    }

    /** The trace so far; a whole trace once the run has completed. */
    const DecodedTrace &trace() const { return trace_; }

    const std::vector<MemEvent> &events() const { return trace_.events; }

    const std::vector<std::pair<ThreadId, std::uint64_t>> &
    threadEnds() const
    {
        return trace_.threadEnds;
    }

  private:
    DecodedTrace trace_;
};

/** Serialize a trace to a binary byte buffer. */
std::vector<std::uint8_t> encodeTrace(const DecodedTrace &trace);

/**
 * Parse a binary trace buffer into @p out.  Returns false, with a
 * one-line reason in @p err, when the buffer is malformed or breaks
 * DecodedTrace's thread rule; @p out is then unspecified.
 */
bool decodeTrace(const std::vector<std::uint8_t> &bytes, DecodedTrace &out,
                 std::string &err);

/** decodeTrace, fatal on a buffer it refuses. */
DecodedTrace decodeTrace(const std::vector<std::uint8_t> &bytes);

/** Write a trace file (fatal on I/O error). */
void saveTrace(const DecodedTrace &trace, const std::string &path);

/** Read and decode a trace file; false, with the reason in @p err,
 *  when the file cannot be read or decodeTrace refuses it. */
bool loadTrace(const std::string &path, DecodedTrace &out,
               std::string &err);

/** Drive a detector from a decoded trace (offline detection);
 *  @p afterAccess, if set, sees each event right after the detector. */
void runDetectorOnTrace(
    const DecodedTrace &trace, Detector &detector,
    const std::function<void(const MemEvent &)> &afterAccess = {});

} // namespace cord

#endif // CORD_HARNESS_TRACE_H
