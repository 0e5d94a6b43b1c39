/**
 * @file
 * Deterministic parallel experiment execution.
 *
 * Every paper figure is an embarrassingly-parallel sweep of independent
 * simulations, so the harness provides a small thread pool and one
 * fan-out primitive built on it: parallelForOrdered(n, jobs, work,
 * merge) runs work(i) on workers and hands each result to
 * merge(i, result) **in submission order on the calling thread**, so
 * aggregation code written for the sequential path keeps working
 * unchanged and produces bit-identical output for any job count.
 *
 * Determinism contract: work(i) must depend only on i (derive per-index
 * seeds with Rng::deriveSeed, never from shared RNG state drawn inside
 * the worker) and must not mutate state shared with other indices.  The
 * run-isolation rules a work body must follow are documented in
 * docs/INTERNALS.md ("Parallel campaign execution").
 *
 * Workers buffer at most a small window of completed results ahead of
 * the merge point, so memory stays bounded even when one index is much
 * slower than its successors.
 */

#ifndef CORD_HARNESS_EXEC_H
#define CORD_HARNESS_EXEC_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace cord
{

/**
 * Resolve a --jobs request to a worker count: 0 means "one per
 * hardware thread" (at least 1), anything else is taken as-is.
 */
unsigned resolveJobs(unsigned requested);

/** Default job count: the CORD_JOBS environment variable (resolved via
 *  resolveJobs), or 1 -- experiments are sequential unless asked. */
unsigned defaultJobs();

/**
 * Fixed-size pool of worker threads draining one FIFO job queue.
 *
 * The destructor waits for every submitted job to finish.  Jobs must
 * not throw; parallelForOrdered does the exception plumbing.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. */
    void submit(std::function<void()> job);

    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Pools constructed and not yet destroyed, process-wide.  A
     *  campaign trunk forks, so it asserts this is 0
     *  (harness/trunk.h). */
    static unsigned alive();

  private:
    void workerMain();

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Run @p work(i) for every i in [0, n) on up to @p jobs workers and
 * call @p merge(i, result) for i = 0, 1, 2, ... strictly in order on
 * the calling thread.  With jobs <= 1 this degenerates to the plain
 * sequential loop, and any jobs > 1 produces the same merge sequence.
 *
 * Exceptions from work(i) are rethrown at i's merge position (results
 * of later indices are discarded); exceptions from merge propagate
 * immediately.  Either way all workers are drained before rethrowing.
 */
template <typename WorkFn, typename MergeFn>
void
parallelForOrdered(std::size_t n, unsigned jobs, WorkFn &&work,
                   MergeFn &&merge)
{
    using R = std::decay_t<std::invoke_result_t<WorkFn &, std::size_t>>;
    jobs = resolveJobs(jobs);
    if (n == 0)
        return;
    if (jobs <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            merge(i, work(i));
        return;
    }

    struct Slot
    {
        std::optional<R> result;
        std::exception_ptr error;
        bool done = false;
    };
    std::vector<Slot> slots(n);
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<std::size_t> next{0};
    std::size_t mergedCount = 0; // guarded by mu
    bool cancelled = false;      // guarded by mu
    // How far past the merge point workers may run: bounds the number
    // of buffered results (campaign results hold whole detector sets).
    const std::size_t window = static_cast<std::size_t>(jobs) * 2;

    auto workerLoop = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk, [&] {
                    return cancelled || i < mergedCount + window;
                });
                if (cancelled)
                    return;
            }
            Slot s;
            try {
                s.result.emplace(work(i));
            } catch (...) {
                s.error = std::current_exception();
            }
            s.done = true;
            {
                std::lock_guard<std::mutex> lk(mu);
                slots[i] = std::move(s);
            }
            cv.notify_all();
        }
    };

    std::exception_ptr failure;
    {
        ThreadPool pool(
            static_cast<unsigned>(std::min<std::size_t>(jobs, n)));
        for (unsigned w = 0; w < pool.workers(); ++w)
            pool.submit(workerLoop);

        std::unique_lock<std::mutex> lk(mu);
        for (std::size_t i = 0; i < n && !failure; ++i) {
            cv.wait(lk, [&] { return slots[i].done; });
            Slot s = std::move(slots[i]);
            ++mergedCount;
            cv.notify_all();
            lk.unlock();
            if (s.error) {
                failure = s.error;
            } else {
                try {
                    merge(i, std::move(*s.result));
                } catch (...) {
                    failure = std::current_exception();
                }
            }
            lk.lock();
        }
        if (failure) {
            cancelled = true;
            cv.notify_all();
        }
        lk.unlock();
        // ThreadPool destructor drains remaining workers.
    }
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace cord

#endif // CORD_HARNESS_EXEC_H
