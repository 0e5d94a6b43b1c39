#include "harness/flight.h"

#include <chrono>

#include "obs/json.h"
#include "sim/logging.h"

namespace cord
{

namespace
{

using Clock = std::chrono::steady_clock;

// One epoch per process is enough: event "t" fields are seconds since
// the recorder was opened, used by `cordstat watch` for liveness.
Clock::time_point g_openEpoch;

double
secondsSinceOpen()
{
    return std::chrono::duration<double>(Clock::now() - g_openEpoch)
        .count();
}

} // namespace

FlightRecorder::FlightRecorder(const std::string &path,
                               std::uint64_t maxBytes)
    : maxBytes_(maxBytes ? maxBytes : kDefaultMaxBytes)
{
    f_ = std::fopen(path.c_str(), "wb");
    if (!f_)
        cord_warn("cannot open heartbeat file ", path,
                  "; campaign continues without one");
    g_openEpoch = Clock::now();
}

FlightRecorder::~FlightRecorder()
{
    if (f_)
        std::fclose(f_);
}

void
FlightRecorder::emit(const std::string &line, bool mandatory)
{
    if (!f_)
        return;
    if (!mandatory && bytes_ + line.size() + 1 > maxBytes_) {
        ++dropped_;
        return;
    }
    std::fwrite(line.data(), 1, line.size(), f_);
    std::fputc('\n', f_);
    // Crash-safety: every line reaches the OS before the next run is
    // reported, so a killed campaign leaves a readable record.
    std::fflush(f_);
    bytes_ += line.size() + 1;
    ++written_;
}

void
FlightRecorder::campaignBegin(const std::string &workload, unsigned runs,
                              unsigned injections, unsigned schedules,
                              unsigned jobs)
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonWriter w;
    w.beginObject();
    w.field("schema", kHeartbeatSchema);
    w.field("event", "campaign_begin");
    w.field("seq", seq_++);
    w.field("t", secondsSinceOpen());
    w.field("workload", workload);
    w.field("runs", runs);
    w.field("injections", injections);
    w.field("schedules", schedules);
    w.field("jobs", jobs);
    w.endObject();
    emit(w.str(), /*mandatory=*/true);
}

void
FlightRecorder::runStarted(unsigned runIndex, unsigned injection,
                           unsigned schedule)
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonWriter w;
    w.beginObject();
    w.field("event", "run_started");
    w.field("seq", seq_++);
    w.field("t", secondsSinceOpen());
    w.field("run", runIndex);
    w.field("injection", injection);
    w.field("schedule", schedule);
    w.endObject();
    emit(w.str(), /*mandatory=*/false);
}

void
FlightRecorder::runFinished(unsigned runIndex, unsigned injection,
                            unsigned schedule, bool completed,
                            bool timedOut, double wallSeconds,
                            std::uint64_t ticks,
                            std::uint64_t idealRaces)
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonWriter w;
    w.beginObject();
    w.field("event", "run_finished");
    w.field("seq", seq_++);
    w.field("t", secondsSinceOpen());
    w.field("run", runIndex);
    w.field("injection", injection);
    w.field("schedule", schedule);
    w.field("completed", completed);
    w.field("timedOut", timedOut);
    w.field("wallSeconds", wallSeconds);
    w.field("ticks", ticks);
    w.field("idealRaces", idealRaces);
    w.endObject();
    emit(w.str(), /*mandatory=*/false);
}

void
FlightRecorder::campaignEnd(unsigned completedRuns, unsigned timedOutRuns,
                            double trunkSeconds, unsigned forks,
                            double childPeakRssMb)
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonWriter w;
    w.beginObject();
    w.field("event", "campaign_end");
    w.field("seq", seq_++);
    w.field("t", secondsSinceOpen());
    w.field("completedRuns", completedRuns);
    w.field("timedOutRuns", timedOutRuns);
    w.field("droppedEvents", dropped_);
    w.field("trunkSeconds", trunkSeconds);
    w.field("forks", forks);
    w.field("childPeakRssMb", childPeakRssMb);
    w.endObject();
    emit(w.str(), /*mandatory=*/true);
}

} // namespace cord
