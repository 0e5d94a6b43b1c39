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

/** A detector that records every committed access. */
class TraceRecorder : public Detector
{
  public:
    TraceRecorder() : Detector("trace") {}

    void
    onAccess(const MemEvent &ev) override
    {
        events_.push_back(ev);
    }

    void
    onThreadEnd(ThreadId tid, std::uint64_t totalInstrs) override
    {
        threadEnds_.emplace_back(tid, totalInstrs);
    }

    const std::vector<MemEvent> &events() const { return events_; }

    const std::vector<std::pair<ThreadId, std::uint64_t>> &
    threadEnds() const
    {
        return threadEnds_;
    }

  private:
    std::vector<MemEvent> events_;
    std::vector<std::pair<ThreadId, std::uint64_t>> threadEnds_;
};

/** Serialize a trace to a binary byte buffer. */
std::vector<std::uint8_t> encodeTrace(const TraceRecorder &trace);

/** Decoded trace contents. */
struct DecodedTrace
{
    std::vector<MemEvent> events;
    std::vector<std::pair<ThreadId, std::uint64_t>> threadEnds;
};

/** Parse a binary trace buffer (fatal on malformed input). */
DecodedTrace decodeTrace(const std::vector<std::uint8_t> &bytes);

/** Write / read a trace file. */
void saveTrace(const TraceRecorder &trace, const std::string &path);
DecodedTrace loadTrace(const std::string &path);

/** Drive a detector from a decoded trace (offline detection);
 *  @p afterAccess, if set, sees each event right after the detector. */
void runDetectorOnTrace(
    const DecodedTrace &trace, Detector &detector,
    const std::function<void(const MemEvent &)> &afterAccess = {});

} // namespace cord

#endif // CORD_HARNESS_TRACE_H
