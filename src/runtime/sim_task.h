/**
 * @file
 * C++20 coroutine tasks for simulated threads.
 *
 * Workload thread bodies and synchronization primitives are coroutines
 * returning Task<T>.  They suspend at every simulated operation
 * (compute block, load, store, atomic RMW); the core timing model
 * resumes them when the operation completes, delivering its result.
 * Nested coroutine calls use symmetric transfer, so a thread is always
 * resumable through a single "active" handle held by its ThreadDriver.
 */

#ifndef CORD_RUNTIME_SIM_TASK_H
#define CORD_RUNTIME_SIM_TASK_H

#include <coroutine>
#include <cstdint>
#include <exception>
#include <type_traits>
#include <utility>

#include "sim/logging.h"
#include "sim/types.h"

namespace cord
{

/** Operation kinds a thread coroutine can request. */
enum class OpType : std::uint8_t
{
    Compute,   //!< retire N non-memory instructions
    Load,
    Store,
    Rmw,       //!< atomic compare-and-swap (always a sync access)
    SpinUntil, //!< retire issueWidth instrs/cycle until a target tick
};

/** A requested operation, produced when a thread coroutine suspends. */
struct OpRequest
{
    OpType type = OpType::Compute;
    Addr addr = 0;
    std::uint64_t value = 0;    //!< store / CAS desired value / spin target
    std::uint64_t expected = 0; //!< CAS compare value
    bool sync = false;          //!< labelled synchronization access
    std::uint32_t count = 0;    //!< compute: instructions to retire
};

/** Result of a completed operation, delivered at resume. */
struct OpResult
{
    std::uint64_t value = 0; //!< loaded value / CAS old value
    bool success = false;    //!< CAS succeeded
    Tick now = 0;            //!< simulated time at completion
};

class ThreadDriver;

namespace task_detail
{

/** State shared by every promise of one simulated thread. */
struct PromiseBase
{
    ThreadDriver *drv = nullptr;
    std::coroutine_handle<> continuation = nullptr;

    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter
    {
        PromiseBase *self;
        bool await_ready() noexcept { return false; }
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<>) noexcept;
        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {this}; }

    void unhandled_exception() { std::terminate(); }
};

} // namespace task_detail

/**
 * Drives one simulated thread's coroutine stack.
 *
 * The core timing model calls resume(); the coroutine runs until it
 * requests an operation (pending() becomes valid) or the root task
 * completes (finished() becomes true).
 */
class ThreadDriver
{
  public:
    ThreadDriver() = default;
    ~ThreadDriver() { release(); }

    ThreadDriver(const ThreadDriver &) = delete;
    ThreadDriver &operator=(const ThreadDriver &) = delete;

    /** Bind the root coroutine (must be a Task<void> handle whose
     *  promise derives PromiseBase; done by Simulation::addThread). */
    void
    bind(std::coroutine_handle<> root, task_detail::PromiseBase *promise)
    {
        release();
        root_ = root;
        promise->drv = this;
        active_ = root;
        finished_ = false;
        hasPending_ = false;
    }

    /** Resume the thread until it requests an op or finishes. */
    void
    resume()
    {
        cord_assert(!finished_, "resuming a finished thread");
        cord_assert(!hasPending_, "resuming with an unserved request");
        cord_assert(active_, "thread has no active coroutine");
        active_.resume();
        cord_assert(finished_ || hasPending_,
                    "thread suspended without requesting an operation");
    }

    bool finished() const { return finished_; }
    bool hasPending() const { return hasPending_; }

    /** The pending operation request (valid when hasPending()). */
    const OpRequest &pending() const { return pending_; }

    /** Deliver the result of the pending operation; the next resume()
     *  continues past the corresponding co_await. */
    void
    complete(const OpResult &r)
    {
        cord_assert(hasPending_, "completing with no pending request");
        result_ = r;
        hasPending_ = false;
    }

    /// @{ @name Internal coroutine plumbing
    void
    requestOp(const OpRequest &req, std::coroutine_handle<> leaf)
    {
        pending_ = req;
        hasPending_ = true;
        active_ = leaf;
    }

    const OpResult &lastResult() const { return result_; }

    void setActive(std::coroutine_handle<> h) { active_ = h; }

    void
    markFinished()
    {
        finished_ = true;
        active_ = nullptr;
    }
    /// @}

  private:
    void
    release()
    {
        if (root_) {
            root_.destroy();
            root_ = nullptr;
        }
    }

    std::coroutine_handle<> root_ = nullptr;
    std::coroutine_handle<> active_ = nullptr;
    OpRequest pending_{};
    OpResult result_{};
    bool hasPending_ = false;
    bool finished_ = true;
};

namespace task_detail
{

inline std::coroutine_handle<>
PromiseBase::FinalAwaiter::await_suspend(std::coroutine_handle<>) noexcept
{
    PromiseBase *p = self;
    if (p->continuation) {
        p->drv->setActive(p->continuation);
        return p->continuation;
    }
    p->drv->markFinished();
    return std::noop_coroutine();
}

} // namespace task_detail

template <typename T>
class Task;

namespace task_detail
{

/** Awaiter transferring control into a child task (symmetric). */
template <typename T, typename Promise>
struct TaskAwaiter
{
    std::coroutine_handle<Promise> child;

    bool await_ready() { return false; }

    template <typename P>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<P> parent)
    {
        auto &cp = child.promise();
        cp.drv = parent.promise().drv;
        cp.continuation = parent;
        cp.drv->setActive(child);
        return child;
    }

    T
    await_resume()
    {
        if constexpr (!std::is_void_v<T>)
            return std::move(child.promise().value);
    }
};

} // namespace task_detail

/**
 * A lazily-started coroutine task tied to a simulated thread.
 *
 * Task<void> is used for thread bodies and most primitives; Task<T>
 * lets helper coroutines (e.g. a task-queue pop) return values.
 */
template <typename T = void>
class Task
{
  public:
    struct promise_type : task_detail::PromiseBase
    {
        T value{};

        Task
        get_return_object()
        {
            return Task{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        void return_value(T v) { value = std::move(v); }
    };

    Task(Task &&o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task()
    {
        if (h_)
            h_.destroy();
    }

    /** Awaiting a task starts it on the awaiting thread's driver. */
    auto
    operator co_await() &&
    {
        return task_detail::TaskAwaiter<T, promise_type>{h_};
    }

    /// @cond INTERNAL
    std::coroutine_handle<promise_type> handle() const { return h_; }
    std::coroutine_handle<promise_type>
    releaseHandle()
    {
        return std::exchange(h_, nullptr);
    }
    /// @endcond

  private:
    explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

    std::coroutine_handle<promise_type> h_;
};

/** Specialization for void-returning tasks. */
template <>
class Task<void>
{
  public:
    struct promise_type : task_detail::PromiseBase
    {
        Task
        get_return_object()
        {
            return Task{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        void return_void() {}
    };

    Task(Task &&o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task()
    {
        if (h_)
            h_.destroy();
    }

    auto
    operator co_await() &&
    {
        return task_detail::TaskAwaiter<void, promise_type>{h_};
    }

    /// @cond INTERNAL
    std::coroutine_handle<promise_type> handle() const { return h_; }
    std::coroutine_handle<promise_type>
    releaseHandle()
    {
        return std::exchange(h_, nullptr);
    }
    /// @endcond

  private:
    explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

    std::coroutine_handle<promise_type> h_;
};

/** Awaitable issuing one primitive operation to the thread's driver. */
struct OpAwaiter
{
    OpRequest req;
    ThreadDriver *drv = nullptr;

    bool await_ready() { return false; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h)
    {
        drv = h.promise().drv;
        drv->requestOp(req, h);
    }

    OpResult await_resume() { return drv->lastResult(); }
};

/// @{ @name Primitive operation factories (awaitables)

/** Retire @p n plain (non-memory) instructions. */
inline OpAwaiter
opCompute(std::uint32_t n)
{
    OpRequest r;
    r.type = OpType::Compute;
    r.count = n;
    return {r};
}

/**
 * Spin at full issue width until the simulated clock reaches
 * @p target, completing exactly then; computeScale does not apply.  A
 * target at or before the current tick completes at once and retires
 * nothing.
 */
inline OpAwaiter
opSpinUntil(Tick target)
{
    OpRequest r;
    r.type = OpType::SpinUntil;
    r.value = target;
    return {r};
}

/** Data load of the word at @p a. */
inline OpAwaiter
opLoad(Addr a)
{
    OpRequest r;
    r.type = OpType::Load;
    r.addr = a;
    return {r};
}

/** Data store of @p v to the word at @p a. */
inline OpAwaiter
opStore(Addr a, std::uint64_t v)
{
    OpRequest r;
    r.type = OpType::Store;
    r.addr = a;
    r.value = v;
    return {r};
}

/** Labelled synchronization load (paper Section 2.7.3). */
inline OpAwaiter
opSyncLoad(Addr a)
{
    OpRequest r;
    r.type = OpType::Load;
    r.addr = a;
    r.sync = true;
    return {r};
}

/** Labelled synchronization store. */
inline OpAwaiter
opSyncStore(Addr a, std::uint64_t v)
{
    OpRequest r;
    r.type = OpType::Store;
    r.addr = a;
    r.value = v;
    r.sync = true;
    return {r};
}

/** Atomic compare-and-swap; always a synchronization access. */
inline OpAwaiter
opCas(Addr a, std::uint64_t expected, std::uint64_t desired)
{
    OpRequest r;
    r.type = OpType::Rmw;
    r.addr = a;
    r.expected = expected;
    r.value = desired;
    r.sync = true;
    return {r};
}

/// @}

} // namespace cord

#endif // CORD_RUNTIME_SIM_TASK_H
