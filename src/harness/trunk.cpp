#include "harness/trunk.h"

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "cord/ideal_detector.h"
#include "harness/exec.h"
#include "sim/logging.h"

namespace cord
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Exit status of a child that could not deliver its record. */
constexpr int kChildFailed = 70;

RaceTally
tally(const Detector &d)
{
    return {d.races().pairs(), d.races().problemDetected()};
}

/** Wire form of a RunRecord: fixed-size, one 64-bit word per field. */
std::size_t
recordWords(std::size_t specs)
{
    return 6 + 2 * specs;
}

std::vector<std::uint64_t>
encodeRecord(const RunRecord &r)
{
    std::vector<std::uint64_t> w = {r.completed,
                                    r.ticks,
                                    r.signature,
                                    std::bit_cast<std::uint64_t>(r.wallSec),
                                    r.ideal.pairs,
                                    r.ideal.problem};
    for (const RaceTally &d : r.dets) {
        w.push_back(d.pairs);
        w.push_back(d.problem);
    }
    return w;
}

/** @p bytes holds exactly recordWords(@p specs) words. */
RunRecord
decodeRecord(const std::string &bytes, std::size_t specs)
{
    std::vector<std::uint64_t> w(recordWords(specs));
    std::memcpy(w.data(), bytes.data(), w.size() * sizeof w[0]);
    RunRecord r;
    r.completed = w[0] != 0;
    r.ticks = w[1];
    r.signature = w[2];
    r.wallSec = std::bit_cast<double>(w[3]);
    r.ideal = {w[4], w[5] != 0};
    for (std::size_t d = 0; d < specs; ++d)
        r.dets.push_back({w[6 + 2 * d], w[7 + 2 * d] != 0});
    return r;
}

/**
 * The trunk's sync-instance filter: forks at every picked instance
 * (see harness/trunk.h for both sides' contracts).  In a child it
 * removes only the instance it was forked at.
 */
class Trunk final : public SyncInstanceFilter
{
  public:
    Trunk(const std::vector<InjectionPick> &picks, unsigned numThreads,
          unsigned jobs, std::size_t specs, SuffixGate &gate,
          FlightRecorder *flight)
        : jobs_(jobs), specs_(specs),
          recordBytes_(recordWords(specs) * sizeof(std::uint64_t)),
          gate_(gate), flight_(flight), byThread_(numThreads),
          cursor_(numThreads, 0)
    {
        std::map<std::pair<ThreadId, std::uint64_t>, std::size_t> index;
        for (unsigned i = 0; i < picks.size(); ++i) {
            const auto key =
                std::make_pair(picks[i].tid, picks[i].seqInThread);
            auto [it, fresh] = index.emplace(key, slots_.size());
            if (fresh)
                slots_.emplace_back();
            slots_[it->second].injections.push_back(i);
            slotOf_.push_back(it->second);
        }
        // Map order is (tid, seq) order: each thread's picks come out
        // sorted by sequence number, the order the trunk reaches them.
        for (const auto &[key, slot] : index) {
            cord_assert(key.first < numThreads, "pick names thread ",
                        key.first, " of a ", numThreads, "-thread run");
            byThread_[key.first].emplace_back(key.second, slot);
        }
    }

    /** Parent: a campaign that fails leaves no child behind. */
    ~Trunk() override
    {
        for (Child &c : live_) {
            ::kill(c.pid, SIGKILL);
            ::waitpid(c.pid, nullptr, 0);
            if (c.fd >= 0)
                ::close(c.fd);
        }
    }

    Trunk(const Trunk &) = delete;
    Trunk &operator=(const Trunk &) = delete;

    bool
    skipInstance(ThreadId tid, std::uint64_t seq,
                 SyncInstanceKind) override
    {
        if (inChild())
            return false; // its own instance was removed at the fork
        const auto &picks = byThread_[tid];
        std::size_t &next = cursor_[tid];
        if (next >= picks.size() || picks[next].first != seq)
            return false;
        const std::size_t slot = picks[next++].second;
        // After a failure the campaign is lost: finish the trunk
        // without starting more children.
        return !failed_ && forkAt(slot);
    }

    bool inChild() const { return childFd_ >= 0; }

    /** Child: host seconds since the fork. */
    double
    childSeconds() const
    {
        return std::chrono::duration<double>(Clock::now() - childStart_)
            .count();
    }

    /** Child: deliver @p r and end the process. */
    [[noreturn]] void
    childExit(const RunRecord &r)
    {
        const std::vector<std::uint64_t> w = encodeRecord(r);
        const char *p = reinterpret_cast<const char *>(w.data());
        std::size_t left = w.size() * sizeof w[0];
        while (left > 0) {
            const ssize_t n = ::write(childFd_, p, left);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                std::fprintf(stderr, "cord: forked campaign run cannot "
                                     "write its record: %s\n",
                             std::strerror(errno));
                ::_exit(kChildFailed);
            }
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        ::_exit(0);
    }

    /** Child: an exception ended the run; never unwind further. */
    [[noreturn]] void
    childDie(std::exception_ptr e)
    {
        std::string what = "non-standard exception";
        try {
            std::rethrow_exception(e);
        } catch (const std::exception &x) {
            what = x.what();
        } catch (...) {
        }
        std::fprintf(stderr, "cord: forked campaign run threw: %s\n",
                     what.c_str());
        ::_exit(kChildFailed);
    }

    /** Parent: wait for every record, then reap every child. */
    void
    reapAll()
    {
        while (owing_ > 0)
            readRecords(/*block=*/true);
        for (Child &c : live_)
            reapChild(c, 0);
        live_.clear();
    }

    /** Parent: seconds spent blocked waiting for children. */
    double blockedSeconds() const { return blockedSec_; }

    /** Parent, after reapAll(): every injection's record, or a
     *  runtime_error naming the first injection without one. */
    TrunkResult
    result(const std::string &workload,
           const std::vector<InjectionPick> &picks)
    {
        auto lost = [&](unsigned i, const std::string &why) {
            return std::runtime_error(
                "campaign of " + workload + ": injection " +
                std::to_string(i) + " (thread " +
                std::to_string(picks[i].tid) + ", sync instance " +
                std::to_string(picks[i].seqInThread) + ") " + why +
                "; no run of the campaign was counted");
        };
        for (unsigned i = 0; i < slotOf_.size(); ++i)
            if (!slots_[slotOf_[i]].failure.empty())
                throw lost(i, "failed in its forked child: " +
                                  slots_[slotOf_[i]].failure);
        TrunkResult r;
        for (unsigned i = 0; i < slotOf_.size(); ++i) {
            const Slot &s = slots_[slotOf_[i]];
            if (!s.rec)
                throw lost(i, "was never reached by the trunk");
            r.runs.push_back(*s.rec);
        }
        r.forks = forks_;
        r.childPeakRssMb = static_cast<double>(peakKb_) / 1024.0;
        return r;
    }

  private:
    struct Slot
    {
        std::vector<unsigned> injections; //!< every pick of it
        std::optional<RunRecord> rec;
        std::string failure;
    };

    struct Child
    {
        pid_t pid = -1;
        /** Read end of the record pipe; -1 once the record is in or
         *  the pipe closed short of it. */
        int fd = -1;
        std::size_t slot = 0;
        std::string bytes; //!< record received so far
    };

    void
    fail(std::size_t slot, std::string why)
    {
        slots_[slot].failure = std::move(why);
        failed_ = true;
    }

    /** Fork at @p slot's instance.  @return true in the child */
    bool
    forkAt(std::size_t slot)
    {
        reap(/*block=*/false); // keep run_finished close to real time
        int fds[2];
        if (::pipe(fds) != 0) {
            fail(slot, std::string("pipe: ") + std::strerror(errno));
            return false;
        }
        std::fflush(nullptr); // no buffered output may be written twice
        const Clock::time_point start = Clock::now();
        const pid_t pid = ::fork();
        if (pid < 0) {
            fail(slot, std::string("fork: ") + std::strerror(errno));
            ::close(fds[0]);
            ::close(fds[1]);
            return false;
        }
        if (pid == 0) {
            ::close(fds[0]);
            for (const Child &c : live_)
                if (c.fd >= 0)
                    ::close(c.fd);
            live_.clear();
            owing_ = 0;
            flight_ = nullptr;
            gate_.park();
            childFd_ = fds[1];
            childStart_ = start;
            return true;
        }
        ::close(fds[1]);
        live_.push_back(Child{pid, fds[0], slot, {}});
        ++owing_;
        ++forks_;
        if (flight_)
            for (unsigned i : slots_[slot].injections)
                flight_->runStarted(i, i, 0);
        // The trunk is one of the `jobs` simulating processes; a child
        // stops counting once its record is in.
        while (owing_ >= jobs_)
            reap(/*block=*/true);
        return false;
    }

    /** Read the records that have arrived, then reap the children
     *  that have exited.  @p block waits until some pipe is ready. */
    void
    reap(bool block)
    {
        if (owing_ > 0)
            readRecords(block);
        std::erase_if(live_, [this](Child &c) {
            return c.fd < 0 && reapChild(c, WNOHANG);
        });
    }

    /** Read every record pipe that is ready.  @p block waits until one
     *  is. */
    void
    readRecords(bool block)
    {
        std::vector<pollfd> pfds;
        std::vector<Child *> owing;
        for (Child &c : live_) {
            if (c.fd >= 0) {
                pfds.push_back({c.fd, POLLIN, 0});
                owing.push_back(&c);
            }
        }
        const Clock::time_point t0 = Clock::now();
        int ready;
        do {
            ready = ::poll(pfds.data(), pfds.size(), block ? -1 : 0);
        } while (ready < 0 && errno == EINTR);
        if (block)
            blockedSec_ +=
                std::chrono::duration<double>(Clock::now() - t0).count();
        cord_assert(ready >= 0, "poll on campaign children failed: ",
                    std::strerror(errno));
        for (std::size_t k = 0; k < pfds.size(); ++k) {
            if (pfds[k].revents == 0)
                continue;
            Child &c = *owing[k];
            char buf[4096];
            const ssize_t n = ::read(c.fd, buf, sizeof buf);
            if (n < 0 && errno == EINTR)
                continue;
            if (n > 0)
                c.bytes.append(buf, static_cast<std::size_t>(n));
            if (n <= 0 || c.bytes.size() >= recordBytes_)
                recordIn(c);
        }
    }

    /** @p c's pipe is done with: its record is in, or it never will
     *  be.  A whole record counts at once; reapChild() judges the rest. */
    void
    recordIn(Child &c)
    {
        ::close(c.fd);
        c.fd = -1;
        --owing_;
        if (c.bytes.size() != recordBytes_)
            return;
        Slot &s = slots_[c.slot];
        s.rec = decodeRecord(c.bytes, specs_);
        if (flight_)
            for (unsigned i : s.injections)
                flight_->runFinished(i, i, 0, s.rec->completed,
                                     !s.rec->completed, s.rec->wallSec,
                                     s.rec->ticks, s.rec->ideal.pairs);
    }

    /** Reap @p c, whose pipe is closed, and judge how it ended.
     *  @p flags is 0 or WNOHANG.  @return false if it is still
     *  exiting */
    bool
    reapChild(Child &c, int flags)
    {
        int status = 0;
        rusage ru{};
        pid_t r;
        do {
            r = ::wait4(c.pid, &status, flags, &ru);
        } while (r < 0 && errno == EINTR);
        if (r == 0)
            return false;
        if (r != c.pid) {
            fail(c.slot, std::string("waitpid: ") + std::strerror(errno));
            return true;
        }
        peakKb_ = std::max<long>(peakKb_, ru.ru_maxrss);
        if (WIFSIGNALED(status)) {
            const int sig = WTERMSIG(status);
            fail(c.slot, "was killed by signal " + std::to_string(sig) +
                             " (" + strsignal(sig) + ")");
        } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            fail(c.slot, "exited with status " +
                             std::to_string(WEXITSTATUS(status)));
        } else if (c.bytes.size() != recordBytes_) {
            fail(c.slot, "sent a record of " +
                             std::to_string(c.bytes.size()) +
                             " bytes, expected " +
                             std::to_string(recordBytes_));
        }
        return true;
    }

    const std::size_t jobs_;
    const std::size_t specs_;
    const std::size_t recordBytes_;
    SuffixGate &gate_;
    FlightRecorder *flight_;

    std::vector<Slot> slots_;         //!< one per distinct pick
    std::vector<std::size_t> slotOf_; //!< injection -> slot
    /** Per thread: (sequence number, slot), ascending. */
    std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>>
        byThread_;
    std::vector<std::size_t> cursor_; //!< per thread: next pick

    std::vector<Child> live_; //!< forked, not yet reaped
    std::size_t owing_ = 0;   //!< live children whose record is not in
    bool failed_ = false;
    unsigned forks_ = 0;
    long peakKb_ = 0;
    double blockedSec_ = 0.0;

    int childFd_ = -1; //!< write end of the record pipe, in a child
    Clock::time_point childStart_;
};

} // namespace

SuffixGate::SuffixGate(const Detector &trigger,
                       std::vector<Detector *> inner)
    : Detector("suffix-gate"), trigger_(trigger), inner_(std::move(inner))
{
}

void
SuffixGate::park()
{
    parked_ = true;
    log_.reserve(kLogBound);
}

bool
SuffixGate::holds(std::size_t more)
{
    if (parked_ && (trigger_.races().pairs() > 0 ||
                    log_.size() + more > kLogBound))
        release();
    return parked_;
}

void
SuffixGate::release()
{
    parked_ = false;
    // Detector by detector, as Simulation::flushDetectors delivers.
    for (Detector *d : inner_) {
        std::size_t from = 0;
        for (const ThreadEnd &e : ends_) {
            d->onAccesses(std::span(log_).subspan(from, e.at - from));
            d->onThreadEnd(e.tid, e.instrs);
            from = e.at;
        }
        d->onAccesses(std::span(log_).subspan(from));
    }
    log_.clear();
    ends_.clear();
}

void
SuffixGate::onAccesses(std::span<const MemEvent> evs)
{
    if (holds(evs.size())) {
        log_.insert(log_.end(), evs.begin(), evs.end());
        return;
    }
    for (Detector *d : inner_)
        d->onAccesses(evs);
}

void
SuffixGate::onThreadEnd(ThreadId tid, std::uint64_t totalInstrs)
{
    if (holds(0)) {
        ends_.push_back({log_.size(), tid, totalInstrs});
        return;
    }
    for (Detector *d : inner_)
        d->onThreadEnd(tid, totalInstrs);
}

void
SuffixGate::finish()
{
    if (holds(0))
        return;
    for (Detector *d : inner_)
        d->finish();
}

RunRecord
makeRunRecord(const RunOutcome &out, const Detector &ideal,
              const std::vector<std::unique_ptr<Detector>> &dets,
              double wallSec)
{
    RunRecord r;
    r.completed = out.completed;
    r.ticks = out.ticks;
    r.signature = out.interleavingSignature;
    r.ideal = tally(ideal);
    for (const auto &d : dets)
        r.dets.push_back(r.ideal.problem ? tally(*d) : RaceTally{});
    r.wallSec = wallSec;
    return r;
}

TrunkResult
runTrunk(const RunSetup &base, const std::vector<DetectorSpec> &specs,
         const std::vector<InjectionPick> &picks, unsigned jobs,
         FlightRecorder *flight)
{
    // fork() copies only the calling thread; a pool's workers would be
    // missing from every child.
    cord_assert(ThreadPool::alive() == 0,
                "the campaign trunk forks, so no harness ThreadPool may "
                "be alive");
    const unsigned threads = base.params.numThreads;
    IdealDetector ideal(threads);
    std::vector<std::unique_ptr<Detector>> dets;
    std::vector<Detector *> inner;
    for (const DetectorSpec &spec : specs) {
        dets.push_back(spec.make(base.machine, threads));
        inner.push_back(dets.back().get());
    }
    SuffixGate gate(ideal, std::move(inner));
    Trunk trunk(picks, threads, resolveJobs(jobs), specs.size(), gate,
                flight);

    RunSetup setup = base;
    setup.filter = &trunk;
    setup.detectors = {&ideal, &gate}; // Ideal first: it is the trigger

    const Clock::time_point t0 = Clock::now();
    RunOutcome out;
    try {
        out = runWorkload(setup);
        if (trunk.inChild())
            trunk.childExit(
                makeRunRecord(out, ideal, dets, trunk.childSeconds()));
    } catch (...) {
        if (trunk.inChild())
            trunk.childDie(std::current_exception());
        throw; // ~Trunk kills and reaps the children
    }
    const double trunkSec =
        std::chrono::duration<double>(Clock::now() - t0).count() -
        trunk.blockedSeconds();
    cord_assert(out.completed, "the campaign trunk (a clean run) hit "
                               "the injection watchdog");
    trunk.reapAll();

    TrunkResult r = trunk.result(base.workload, picks);
    r.cleanIdealRaces = ideal.races().pairs();
    r.trunkSeconds = trunkSec;
    return r;
}

} // namespace cord
