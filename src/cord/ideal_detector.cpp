#include "cord/ideal_detector.h"

#include "sim/logging.h"

namespace cord
{

IdealDetector::IdealDetector(unsigned numThreads, std::string name)
    : Detector(std::move(name)), numThreads_(numThreads),
      useMasks_(numThreads <= 64)
{
    cord_assert(numThreads_ > 0, "Ideal needs at least one thread");
    dataRaces_ = stats_.counter("ideal.dataRaces");
    vc_.reserve(numThreads_);
    for (ThreadId t = 0; t < numThreads_; ++t) {
        vc_.emplace_back(numThreads_);
        vc_.back().tick(t); // components start at 1 so epoch 0 == never
    }
}

void
IdealDetector::onAccess(const MemEvent &ev)
{
    observe(ev, [&](ThreadId, bool) { reportRace(ev); });
}

void
IdealDetector::reportRace(const MemEvent &ev)
{
    report_.record({ev.tick, wordAddr(ev.addr), ev.tid, ev.kind, 0, 0});
    dataRaces_.inc();
}

void
IdealDetector::synchronize(const MemEvent &ev)
{
    VectorClock &tvc = vc_[ev.tid];
    VectorClock &svc = syncVc_[wordAddr(ev.addr)];
    if (svc.size() == 0)
        svc = VectorClock(numThreads_);
    if (!ev.isWrite()) {
        // Acquire: learn everything the last releaser knew.
        tvc.join(svc);
    } else {
        // Release: publish current knowledge, then advance so later
        // private accesses are not ordered before acquirers.
        svc.join(tvc);
        tvc.tick(ev.tid);
    }
}

void
IdealDetector::promote(WordState &w, ThreadId owner)
{
    w.base = static_cast<std::uint32_t>(epochs_.size());
    epochs_.resize(epochs_.size() + 2 * std::size_t{numThreads_}, 0);
    if (w.write.valid()) {
        epochs_[w.base + owner] = w.write.clock();
        w.writeMask |= 1ull << (owner & 63);
    }
    if (w.read.valid()) {
        epochs_[w.base + numThreads_ + owner] = w.read.clock();
        w.readMask |= 1ull << (owner & 63);
    }
}

} // namespace cord
