#include "cpu/simulation.h"

#include <algorithm>

#include "cord/cord_detector.h"
#include "obs/tracer.h"
#include "sim/logging.h"

namespace cord
{

Simulation::Simulation(const MachineConfig &cfg, unsigned numThreads)
    : cfg_(cfg), mem_(cfg),
      threads_(std::make_unique<Thread[]>(numThreads)),
      numThreads_(numThreads)
{
    cord_assert(numThreads > 0, "need at least one thread");
    if (cfg_.issueWidth == 0 || cfg_.computeScale == 0)
        cord_fatal("machine config: issueWidth (", cfg_.issueWidth,
                   ") and computeScale (", cfg_.computeScale,
                   ") must be at least 1");
    cores_.resize(cfg_.numCores);
    for (unsigned i = 0; i < numThreads; ++i) {
        Thread &t = threads_[i];
        t.tid = static_cast<ThreadId>(i);
        t.core = static_cast<CoreId>(i % cfg_.numCores);
        t.nextMigration = cfg_.migrationPeriodInstrs;
        cores_[t.core].threads.push_back(i);
    }
}

void
Simulation::moveThread(Thread &t, CoreId newCore)
{
    cord_assert(newCore < cores_.size(), "bad migration target");
    auto &from = cores_[t.core].threads;
    for (std::size_t i = 0; i < from.size(); ++i) {
        if (from[i] == t.tid) {
            from.erase(from.begin() + static_cast<long>(i));
            break;
        }
    }
    cores_[t.core].rr = 0;
    t.core = newCore;
    cores_[newCore].threads.push_back(t.tid);
}

Simulation::~Simulation() = default;

void
Simulation::spawn(ThreadId tid, Task<void> body)
{
    cord_assert(tid < numThreads_, "spawn: unknown thread ", tid);
    Thread &t = threads_[tid];
    cord_assert(!t.spawned, "thread ", tid, " spawned twice");
    auto h = body.releaseHandle();
    t.drv.bind(h, &h.promise());
    t.spawned = true;
}

void
Simulation::addDetector(Detector *d)
{
    cord_assert(d != nullptr, "null detector");
    detectors_.push_back(d);
}

std::uint64_t
Simulation::instrCount(ThreadId tid) const
{
    cord_assert(tid < numThreads_, "unknown thread ", tid);
    return threads_[tid].instrs;
}

std::uint64_t
Simulation::readChecksum(ThreadId tid) const
{
    cord_assert(tid < numThreads_, "unknown thread ", tid);
    return threads_[tid].readChecksum;
}

void
Simulation::foldChecksum(Thread &t, Addr addr, std::uint64_t value)
{
    // FNV-1a over (addr, value) pairs in program order.
    auto mix = [&](std::uint64_t x) {
        t.readChecksum ^= x;
        t.readChecksum *= 0x100000001b3ULL;
    };
    mix(addr);
    mix(value);
}

void
Simulation::scheduleCore(CoreId c)
{
    Core &core = cores_[c];
    if (core.eventScheduled)
        return;
    core.eventScheduled = true;
    events_.schedule(events_.now(), {EventKind::CoreStep, c},
                     EventQueue::kPriCore);
}

void
Simulation::wakeCore(CoreId c)
{
    // The response runs at (T, kPriResponse) and the issue step it
    // wakes would run at (T, kPriCore).  When nothing pending sorts
    // between the two, the step runs in place; it still takes its seq
    // and counts as executed, so event accounting is unchanged.  Past
    // the watchdog limit the step is scheduled, so run() returns
    // before it exactly as it would have before.
    if (!cores_[c].eventScheduled && events_.now() <= maxTicks_ &&
        events_.claimNext(EventQueue::kPriCore)) {
        coreStep(c);
        return;
    }
    scheduleCore(c);
}

void
Simulation::coreStep(CoreId c)
{
    if (sched_ != nullptr) {
        coreStepPolicy(c);
        return;
    }
    Core &core = cores_[c];
    core.eventScheduled = false;
    for (std::size_t probe = 0, n = core.threads.size(); probe < n;) {
        Thread &t = threads_[core.threads[core.rr]];
        // Compare-and-wrap instead of % n: this runs once per core
        // wake-up and the hardware divide was visible in profiles.
        core.rr = (core.rr + 1 < n) ? core.rr + 1 : 0;
        ++probe;
        if (t.finished || t.waiting || t.blocked || !t.spawned)
            continue;
        if (runThread(t))
            return; // one in-flight operation per (blocking) core
        if (core.threads.size() != n) {
            // t migrated away: the list shrank and the cursor went
            // back to 0.  Rescan what is left, so no runnable thread
            // is stranded on an otherwise idle core.
            n = core.threads.size();
            probe = 0;
        }
    }
}

void
Simulation::coreStepPolicy(CoreId c)
{
    Core &core = cores_[c];
    core.eventScheduled = false;
    // Every iteration either consumes the core slot (an operation goes
    // in flight) or retires a thread from this core's runnable set --
    // runThread returns false only when the thread finished or
    // migrated away -- so the loop is bounded by the threads pinned
    // here at entry.  A full rescan after a false return (instead of
    // the default path's shrinking probe window) guarantees a runnable
    // thread is never stranded on an otherwise idle core, which a
    // policy picking beyond the first candidate could otherwise cause.
    std::size_t guard = core.threads.size();
    for (;;) {
        const std::size_t n = core.threads.size();
        if (n == 0)
            return;
        if (core.rr >= n)
            core.rr = 0; // a migration shrank the list under the cursor
        // Runnable candidates in the cursor's probe order.  The policy
        // is queried only at contended decisions (>= 2 candidates); a
        // lone candidate issues unconditionally, so quiet phases
        // produce no schedule-log entries.
        candPos_.clear();
        candTids_.clear();
        for (std::size_t probe = 0; probe < n; ++probe) {
            const std::size_t pos = (core.rr + probe) % n;
            const Thread &t = threads_[core.threads[pos]];
            if (t.finished || t.waiting || t.blocked || !t.spawned)
                continue;
            candPos_.push_back(pos);
            candTids_.push_back(t.tid);
        }
        if (candPos_.empty())
            return;
        std::size_t choice = 0;
        if (candTids_.size() > 1) {
            choice = sched_->pickThread(c, candTids_);
            if (choice >= candTids_.size())
                choice = 0;
            if (schedRec_)
                schedRec_->push(SchedPoint::Pick, choice);
            if (EventTracer *tr = EventTracer::active())
                tr->emit(TraceEventKind::SchedDecision, events_.now(),
                         candTids_[choice], c,
                         static_cast<std::uint64_t>(SchedPoint::Pick),
                         choice);
        }
        const std::size_t pos = candPos_[choice];
        Thread &t = threads_[core.threads[pos]];
        // Advance the cursor past the chosen slot first, exactly like
        // the default path, so a migration's cursor reset inside
        // runThread still wins.
        core.rr = static_cast<unsigned>((pos + 1) % n);
        if (runThread(t))
            return; // one in-flight operation per (blocking) core
        if (guard-- == 0)
            return; // defensive bound; unreachable in practice
    }
}

bool
Simulation::runThread(Thread &t)
{
    // Scheduler-driven migration: re-pin the thread periodically.
    if (cfg_.migrationPeriodInstrs != 0 &&
        t.instrs >= t.nextMigration && cfg_.numCores > 1) {
        t.nextMigration = t.instrs + cfg_.migrationPeriodInstrs;
        const CoreId target =
            static_cast<CoreId>((t.core + 1) % cfg_.numCores);
        moveThread(t, target);
        scheduleCore(target);
        return false; // this core's slot is free again
    }
    for (;;) {
        if (t.computeRemaining > 0) {
            std::uint64_t chunk = t.computeRemaining;
            if (gate_)
                chunk = gate_->allowance(t.tid, chunk);
            if (chunk == 0) {
                // Gate-blocked: retry after a short delay.
                t.blocked = true;
                events_.scheduleIn(kGateRetryTicks,
                                   {EventKind::GateRetry, t.tid});
                return true;
            }
            t.instrs += chunk;
            if (gate_)
                gate_->onRetired(t.tid, chunk);
            t.computeRemaining -= chunk;
            const Tick cost = std::max<Tick>(
                1, (chunk + cfg_.issueWidth - 1) / cfg_.issueWidth);
            t.waiting = true;
            events_.scheduleIn(cost, {EventKind::ComputeDone, t.tid},
                               EventQueue::kPriResponse);
            return true;
        }

        if (!t.drv.hasPending()) {
            if (t.drv.finished()) {
                finishThread(t);
                return false; // slot free for another thread
            }
            t.drv.resume();
            continue;
        }

        const OpRequest &op = t.drv.pending();
        switch (op.type) {
          case OpType::Compute:
          case OpType::SpinUntil: {
            // A spin retires issueWidth instructions per cycle to its
            // target, so its one chunk completes exactly there.
            const Tick now = events_.now();
            if (op.type == OpType::Compute)
                t.computeRemaining =
                    std::uint64_t{op.count} * cfg_.computeScale;
            else if (op.value > now)
                t.computeRemaining = (op.value - now) * cfg_.issueWidth;
            if (t.computeRemaining == 0)
                t.drv.complete(OpResult{0, false, now});
            continue;
          }

          case OpType::Load:
          case OpType::Store:
          case OpType::Rmw:
            if (gate_ && gate_->allowance(t.tid, 1) == 0) {
                t.blocked = true;
                events_.scheduleIn(kGateRetryTicks,
                                   {EventKind::GateRetry, t.tid});
                return true;
            }
            issueMemOp(t);
            return true;
        }
    }
}

void
Simulation::issueMemOp(Thread &t)
{
    const OpRequest &op = t.drv.pending();
    t.instrs += 1;
    if (gate_)
        gate_->onRetired(t.tid, 1);

    // An RMW needs ownership like a store; a failed CAS is modeled with
    // store timing too (the line is fetched exclusively either way).
    const bool writeForTiming = op.type != OpType::Load;
    Tick completion;
    if (gate_) {
        // Replay: the gate defines the ordering, so operations must
        // commit in issue order -- variable memory latencies would let
        // a later-issued read commit before an earlier-issued write.
        completion = events_.now() + 1;
    } else {
        completion =
            mem_.access(t.core, op.addr, writeForTiming, events_.now())
                .completion;
        if (sched_) {
            const Tick extra = sched_->memDelay(t.tid, op.addr, op.sync);
            if (schedRec_)
                schedRec_->push(SchedPoint::Delay, extra);
            completion += extra;
            if (extra > 0) {
                if (EventTracer *tr = EventTracer::active())
                    tr->emit(TraceEventKind::SchedDecision,
                             events_.now(), t.tid, t.core,
                             static_cast<std::uint64_t>(
                                 SchedPoint::Delay),
                             extra);
            }
        }
    }

    t.waiting = true;
    events_.schedule(completion, {EventKind::MemOpDone, t.tid},
                     EventQueue::kPriResponse);
}

void
Simulation::dispatch(EventTarget ev)
{
    switch (ev.kind) {
      case EventKind::CoreStep:
        coreStep(static_cast<CoreId>(ev.index));
        break;
      case EventKind::MemOpDone: {
        Thread &t = threads_[ev.index];
        t.waiting = false;
        commitMemOp(t);
        wakeCore(t.core);
        break;
      }
      case EventKind::ComputeDone: {
        Thread &t = threads_[ev.index];
        t.waiting = false;
        if (t.computeRemaining == 0)
            t.drv.complete(OpResult{0, false, events_.now()});
        wakeCore(t.core);
        break;
      }
      case EventKind::GateRetry: {
        Thread &t = threads_[ev.index];
        t.blocked = false;
        scheduleCore(t.core);
        break;
      }
    }
}

void
Simulation::publish(Thread &t, Addr addr, AccessKind kind,
                    std::uint64_t value)
{
    const Addr word = wordAddr(addr);
    ++committed_;
    // Interleaving signature: FNV-1a over (tid, kind, word address) in
    // commit order.  Values are excluded so the signature fingerprints
    // the ordering alone, not the data it produced.
    auto mix = [this](std::uint64_t x) {
        sig_ ^= x;
        sig_ *= 0x100000001b3ULL;
    };
    mix(t.tid);
    mix(static_cast<std::uint64_t>(kind));
    mix(word);
    if (detectors_.empty())
        return;
    // Written in place: a stack copy would be read back with wide loads
    // that cannot forward from its narrow stores.
    MemEvent &ev = batch_[batched_];
    ev.tick = events_.now();
    ev.addr = word;
    ev.instrCount = t.instrs;
    ev.value = value;
    ev.tid = t.tid;
    ev.core = t.core;
    ev.kind = kind;
    if (++batched_ >= flushAt_)
        flushDetectors();
}

void
Simulation::flushDetectors()
{
    // Detector by detector, so each one's metadata stays host-cache
    // hot across the whole batch.
    const std::span<const MemEvent> evs(batch_.data(), batched_);
    for (Detector *d : detectors_)
        d->onAccesses(evs);
    batched_ = 0;
}

void
Simulation::commitMemOp(Thread &t)
{
    const OpRequest &op = t.drv.pending();
    OpResult res;
    switch (op.type) {
      case OpType::Load: {
        res.value = values_.load(op.addr);
        res.success = true;
        foldChecksum(t, op.addr, res.value);
        publish(t, op.addr,
                op.sync ? AccessKind::SyncRead : AccessKind::DataRead,
                res.value);
        break;
      }
      case OpType::Store: {
        values_.store(op.addr, op.value);
        publish(t, op.addr,
                op.sync ? AccessKind::SyncWrite : AccessKind::DataWrite,
                op.value);
        break;
      }
      case OpType::Rmw: {
        auto [old, ok] = values_.compareAndSwap(op.addr, op.expected,
                                                op.value);
        res.value = old;
        res.success = ok;
        foldChecksum(t, op.addr, old);
        publish(t, op.addr, AccessKind::SyncRead, old);
        if (ok)
            publish(t, op.addr, AccessKind::SyncWrite, op.value);
        break;
      }
      default:
        cord_panic("commitMemOp on non-memory op");
    }
    res.now = events_.now();
    t.drv.complete(res);
}

void
Simulation::finishThread(Thread &t)
{
    cord_assert(!t.finished, "thread finished twice");
    t.finished = true;
    ++finishedThreads_;
    flushDetectors();
    for (Detector *d : detectors_)
        d->onThreadEnd(t.tid, t.instrs);
    if (allFinished()) {
        finishTick_ = events_.now();
        for (Detector *d : detectors_)
            d->finish();
    }
}

bool
Simulation::run(Tick maxTicks)
{
    for (unsigned i = 0; i < numThreads_; ++i)
        cord_assert(threads_[i].spawned, "thread ", i, " never spawned");
    cord_assert(timingCord_ == nullptr ||
                    std::find(detectors_.begin(), detectors_.end(),
                              timingCord_) != detectors_.end(),
                "the timing-coupled CORD must also be attached");
    maxTicks_ = maxTicks;
    if (timingCord_)
        timingCord_->setTrafficSink(this);
    // Coupled traffic is charged at the commit tick, and the trace ring
    // must keep commit order: both need per-access delivery.
    flushAt_ = (timingCord_ != nullptr || EventTracer::active() != nullptr)
                   ? 1
                   : kDetectorBatch;
    batch_.resize(detectors_.empty() ? 0 : flushAt_);
    batched_ = 0;
    if (sched_)
        sched_->begin(numThreads_, static_cast<unsigned>(cores_.size()));
    for (unsigned c = 0; c < cores_.size(); ++c) {
        if (!cores_[c].threads.empty())
            scheduleCore(static_cast<CoreId>(c));
    }
    bool completed = true;
    while (!allFinished()) {
        if (events_.empty())
            cord_panic("event queue drained with ", finishedThreads_,
                       " of ", numThreads_, " threads finished");
        if (events_.now() > maxTicks) {
            completed = false; // watchdog: no Detector::finish()
            break;
        }
        dispatch(events_.pop());
    }
    flushDetectors(); // a watchdog stop can leave a partial batch
    if (timingCord_)
        timingCord_->setTrafficSink(nullptr);
    return completed;
}

} // namespace cord
