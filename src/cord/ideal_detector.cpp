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

template <SyncOrder Order>
void
IdealDetector::synchronize(const MemEvent &ev)
{
    VectorClock &tvc = vc_[ev.tid];
    WordState &w = words_[ev.addr / kWordBytes];
    if (w.sync == WordState::kNoSync) {
        w.sync = static_cast<std::uint32_t>(syncVc_.size());
        syncVc_.emplace_back(numThreads_);
    }
    VectorClock &svc = syncVc_[w.sync];
    if (!ev.isWrite()) {
        // Acquire: learn everything the last releaser knew.
        tvc.join(svc);
    } else {
        // Release: publish current knowledge, then advance so later
        // private accesses are not ordered before acquirers.
        if constexpr (Order == SyncOrder::HappensBefore)
            svc.join(tvc);
        else
            svc = tvc;
        tvc.tick(ev.tid);
    }
}

template void
IdealDetector::synchronize<SyncOrder::HappensBefore>(const MemEvent &);
template void
IdealDetector::synchronize<SyncOrder::LastWriter>(const MemEvent &);

void
IdealDetector::promote(WordState &w, ThreadId owner)
{
    const WordState::Last last = w.last;
    w.base = static_cast<std::uint32_t>(epochs_.size());
    w.seen = WordState::Seen{0, 0};
    epochs_.resize(epochs_.size() + 2 * std::size_t{numThreads_}, 0);
    if (last.write.valid()) {
        epochs_[w.base + owner] = last.write.clock();
        w.seen.writers |= 1ull << (owner & 63);
    }
    if (last.read.valid()) {
        epochs_[w.base + numThreads_ + owner] = last.read.clock();
        w.seen.readers |= 1ull << (owner & 63);
    }
}

} // namespace cord
