#include "cord/ideal_detector.h"

#include "sim/logging.h"

namespace cord
{

IdealDetector::IdealDetector(unsigned numThreads, std::string name)
    : Detector(std::move(name)), numThreads_(numThreads)
{
    cord_assert(numThreads_ > 0, "Ideal needs at least one thread");
    dataRaces_ = stats_.counter("ideal.dataRaces");
    vc_.reserve(numThreads_);
    for (ThreadId t = 0; t < numThreads_; ++t) {
        vc_.emplace_back(numThreads_);
        vc_.back().tick(t); // components start at 1 so epoch 0 == never
    }
}

std::uint32_t *
IdealDetector::history(Addr wordA)
{
    const std::size_t rowWidth = 2 * std::size_t{numThreads_};
    std::uint32_t &row = wordRow_[wordA];
    if (row == 0) {
        // Rows are numbered from 1 so a fresh map slot (0) reads as
        // "no row yet".
        epochs_.resize(epochs_.size() + rowWidth, 0);
        row = static_cast<std::uint32_t>(epochs_.size() / rowWidth);
    }
    return &epochs_[(row - 1) * rowWidth];
}

void
IdealDetector::onAccess(const MemEvent &ev)
{
    cord_assert(ev.tid < numThreads_, "unknown thread ", ev.tid);
    VectorClock &tvc = vc_[ev.tid];
    const Addr wa = wordAddr(ev.addr);

    if (ev.isSync()) {
        // Synchronization maintains happens-before; it is never itself
        // reported as a data race.
        VectorClock &svc = syncVc_[wa];
        if (svc.size() == 0)
            svc = VectorClock(numThreads_);
        if (!ev.isWrite()) {
            // Acquire: learn everything the last releaser knew.
            tvc.join(svc);
        } else {
            // Release: publish current knowledge, then advance so
            // later private accesses are not ordered before acquirers.
            svc.join(tvc);
            tvc.tick(ev.tid);
        }
        return;
    }

    std::uint32_t *lastWrite = history(wa);
    std::uint32_t *lastRead = lastWrite + numThreads_;
    // Race check: a conflicting last access by another thread whose
    // epoch the current thread has not yet acquired is concurrent.
    for (ThreadId u = 0; u < numThreads_; ++u) {
        if (u == ev.tid)
            continue;
        const std::uint32_t we = lastWrite[u];
        if (we != 0 && tvc[u] < we) {
            report_.record({ev.tick, wa, ev.tid, ev.kind, 0, 0});
            dataRaces_.inc();
        }
        if (ev.isWrite()) {
            const std::uint32_t re = lastRead[u];
            if (re != 0 && tvc[u] < re) {
                report_.record({ev.tick, wa, ev.tid, ev.kind, 0, 0});
                dataRaces_.inc();
            }
        }
    }
    // Record this access's epoch.
    if (ev.isWrite())
        lastWrite[ev.tid] = tvc[ev.tid];
    else
        lastRead[ev.tid] = tvc[ev.tid];
}

} // namespace cord
