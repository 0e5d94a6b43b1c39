#include "harness/exec.h"

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "sim/parse_num.h"

namespace cord
{

namespace
{

/**
 * Parse an unsigned count from environment variable @p name.  Unset or
 * empty yields 1 (the documented default).  A malformed value -- not a
 * plain base-10 number, trailing garbage, or out of range -- also
 * yields 1, with a one-line stderr diagnostic: treating a parse
 * failure as 0 would silently mean "one per hardware thread", the
 * opposite of the default.  ("0" itself is valid and keeps that
 * documented meaning.)
 */
unsigned
envCount(const char *name)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return 1;
    const ParsedUnsigned n = parseUnsigned(
        name, v, 0, std::numeric_limits<unsigned>::max());
    if (!n) {
        std::fprintf(stderr, "cord: ignoring malformed %s='%s' (want a "
                             "non-negative integer); using 1\n",
                     name, v);
        return 1;
    }
    return static_cast<unsigned>(n.value);
}

std::atomic<unsigned> g_alivePools{0};

} // namespace

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
defaultJobs()
{
    return resolveJobs(envCount("CORD_JOBS"));
}

ThreadPool::ThreadPool(unsigned workers)
{
    g_alivePools.fetch_add(1, std::memory_order_relaxed);
    threads_.reserve(workers ? workers : 1);
    for (unsigned w = 0; w < (workers ? workers : 1); ++w)
        threads_.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
    g_alivePools.fetch_sub(1, std::memory_order_relaxed);
}

unsigned
ThreadPool::alive()
{
    return g_alivePools.load(std::memory_order_relaxed);
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.push_back(std::move(job));
    }
    cv_.notify_one();
}

void
ThreadPool::workerMain()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to drain
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();
    }
}

} // namespace cord
