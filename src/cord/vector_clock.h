/**
 * @file
 * Classical logical vector clocks (Fidge/Mattern), used by the paper's
 * comparison configurations (Ideal, InfCache, L2Cache, L1Cache) and by
 * the pure happens-before Ideal detector.
 */

#ifndef CORD_CORD_VECTOR_CLOCK_H
#define CORD_CORD_VECTOR_CLOCK_H

#include <algorithm>
#include <cstdint>

#include "sim/logging.h"
#include "sim/types.h"

namespace cord
{

/**
 * A FastTrack-style epoch: one thread's scalar clock paired with the
 * thread that owns it, packed into a single 64-bit word (the paper
 * FastTrack writes it "c@t").  An epoch represents the common case of
 * vector-clock metadata -- a location last accessed by exactly one
 * thread -- in O(1) space and compares against a full vector clock in
 * O(1) time, which is what makes the Ideal detector's happens-before
 * engine (cord/ideal_detector.h) linear in practice.
 *
 * Clock value 0 means "never" everywhere in this code base, so a
 * default-constructed Epoch is the absent epoch.
 */
class Epoch
{
  public:
    Epoch() = default;

    Epoch(ThreadId tid, std::uint32_t clock)
        : raw_((static_cast<std::uint64_t>(tid) << 32) | clock)
    {
    }

    ThreadId tid() const { return static_cast<ThreadId>(raw_ >> 32); }
    std::uint32_t clock() const { return static_cast<std::uint32_t>(raw_); }

    /** True when this epoch has ever been set (clock 0 == never). */
    bool valid() const { return clock() != 0; }

    bool operator==(const Epoch &o) const { return raw_ == o.raw_; }

  private:
    std::uint64_t raw_ = 0;
};

/**
 * A vector clock with one 32-bit component per thread.
 *
 * Up to kInlineComponents components live inside the object, so the
 * clocks of a default-sized machine never touch the heap and copying
 * one into a detector history entry is a 16-byte copy; wider clocks
 * keep their components in one heap array.  Either way the object is
 * 24 bytes, so detector history entries holding one stay small.
 */
class VectorClock
{
  public:
    static constexpr unsigned kInlineComponents = kDefaultNumThreads;

    VectorClock() = default;

    explicit VectorClock(unsigned n) : n_(n)
    {
        if (!isInline())
            heap_ = new std::uint32_t[n];
        std::fill_n(data(), n, 0u);
    }

    VectorClock(const VectorClock &o) : n_(o.n_)
    {
        if (!isInline())
            heap_ = new std::uint32_t[n_];
        std::copy_n(o.data(), n_, data());
    }

    VectorClock(VectorClock &&o) noexcept : n_(o.n_)
    {
        if (isInline())
            std::copy_n(o.inline_, n_, inline_);
        else
            heap_ = o.heap_;
        o.n_ = 0;
    }

    VectorClock &
    operator=(const VectorClock &o)
    {
        if (this == &o)
            return *this;
        if (n_ != o.n_) {
            release();
            n_ = o.n_;
            if (!isInline())
                heap_ = new std::uint32_t[n_];
        }
        std::copy_n(o.data(), n_, data());
        return *this;
    }

    VectorClock &
    operator=(VectorClock &&o) noexcept
    {
        if (this == &o)
            return *this;
        release();
        n_ = o.n_;
        if (isInline())
            std::copy_n(o.inline_, n_, inline_);
        else
            heap_ = o.heap_;
        o.n_ = 0;
        return *this;
    }

    ~VectorClock() { release(); }

    unsigned size() const { return n_; }

    std::uint32_t
    operator[](unsigned i) const
    {
        cord_assert(i < n_, "vector clock index out of range");
        return data()[i];
    }

    /** Increment this thread's own component. */
    void
    tick(unsigned i)
    {
        cord_assert(i < n_, "vector clock index out of range");
        ++data()[i];
    }

    /** Set one component. */
    void
    setComponent(unsigned i, std::uint32_t v)
    {
        cord_assert(i < n_, "vector clock index out of range");
        data()[i] = v;
    }

    /** Component-wise maximum (the classical join). */
    void
    join(const VectorClock &o)
    {
        cord_assert(o.n_ == n_, "joining mismatched vector clocks");
        std::uint32_t *c = data();
        const std::uint32_t *oc = o.data();
        for (unsigned i = 0; i < n_; ++i) {
            if (oc[i] > c[i])
                c[i] = oc[i];
        }
    }

    /** Pointwise less-or-equal: this happened-before-or-equals @p o. */
    bool
    lessEq(const VectorClock &o) const
    {
        cord_assert(o.n_ == n_, "comparing mismatched vector clocks");
        const std::uint32_t *c = data();
        const std::uint32_t *oc = o.data();
        for (unsigned i = 0; i < n_; ++i) {
            if (c[i] > oc[i])
                return false;
        }
        return true;
    }

    bool
    operator==(const VectorClock &o) const
    {
        return n_ == o.n_ && std::equal(data(), data() + n_, o.data());
    }

    /**
     * True when the access stamped @p e happened-before this clock's
     * owner (the FastTrack O(1) epoch-vs-vector comparison e <= V).
     * An invalid (never-set) epoch trivially happened-before.
     */
    bool
    knows(const Epoch &e) const
    {
        return !e.valid() || data()[e.tid()] >= e.clock();
    }

  private:
    bool isInline() const { return n_ <= kInlineComponents; }

    std::uint32_t *data() { return isInline() ? inline_ : heap_; }
    const std::uint32_t *data() const
    {
        return isInline() ? inline_ : heap_;
    }

    void
    release()
    {
        if (!isInline())
            delete[] heap_;
    }

    unsigned n_ = 0;
    union
    {
        std::uint32_t inline_[kInlineComponents] = {};
        std::uint32_t *heap_;
    };
};

static_assert(sizeof(VectorClock) == 24,
              "inline vector clocks must not grow detector history");

} // namespace cord

#endif // CORD_CORD_VECTOR_CLOCK_H
