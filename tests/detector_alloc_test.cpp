/**
 * @file
 * Allocation test for the campaign detectors' per-access metadata:
 * once VC-L2Cache's history caches and Ideal's word table have seen a
 * fixed word set, onAccess must never touch the heap again.
 *
 * This is its own binary because the counting global operator new
 * below applies to every test linked with it.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "cord/ideal_detector.h"
#include "cord/vc_detector.h"
#include "sim/rng.h"

static std::atomic<std::uint64_t> gHeapAllocs{0};

// GCC pairs the replaced delete below with the *default* operator new
// when diagnosing, so it flags free() as mismatched even though both
// replacements consistently use malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n)
{
    ++gHeapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    ++gHeapAllocs;
    const auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace cord
{
namespace
{

constexpr unsigned kThreads = 4;
/** Four times the lines of the paper's L2, so the caches overflow. */
constexpr unsigned kLines = 4 * 512;
constexpr Addr kDataBase = 0x100000;
constexpr Addr kSyncBase = 0x900000;
constexpr unsigned kSyncWords = 4;

/**
 * Feeds both detectors the same race-free stream: every line is
 * shared, but thread t only writes its own word t of a line, and the
 * upper half of each line is read-only.  So lines move between cores,
 * writes invalidate remote copies and histories fold into the memory
 * clocks, while no race report (whose sample list may grow) is made.
 */
class Feeder
{
  public:
    Feeder() : vc_(VcConfig{}, "VC-L2Cache"), ideal_(kThreads) {}

    void
    access(ThreadId tid, Addr addr, AccessKind kind)
    {
        MemEvent ev;
        ev.tick = ++tick_;
        ev.tid = tid;
        ev.core = static_cast<CoreId>(tid);
        ev.addr = addr;
        ev.kind = kind;
        ev.instrCount = ++instrs_[tid];
        vc_.onAccess(ev);
        ideal_.onAccess(ev);
    }

    /** Every word and sync variable the random phase can touch. */
    void
    touchWordSet()
    {
        for (unsigned line = 0; line < kLines; ++line) {
            for (ThreadId t = 0; t < kThreads; ++t) {
                access(t, ownWord(t, line), AccessKind::DataWrite);
                for (unsigned w = kWordsPerLine / 2; w < kWordsPerLine; ++w)
                    access(t, wordOf(line, w), AccessKind::DataRead);
            }
        }
        for (ThreadId t = 0; t < kThreads; ++t) {
            for (unsigned s = 0; s < kSyncWords; ++s) {
                access(t, syncWord(s), AccessKind::SyncWrite);
                access(t, syncWord(s), AccessKind::SyncRead);
            }
        }
    }

    /** One access drawn from the race-free mix. */
    void
    randomAccess(Rng &rng)
    {
        const auto t = static_cast<ThreadId>(rng.below(kThreads));
        const auto line = static_cast<unsigned>(rng.below(kLines));
        switch (rng.below(5)) {
        case 0:
            access(t, ownWord(t, line), AccessKind::DataWrite);
            break;
        case 1:
            access(t, ownWord(t, line), AccessKind::DataRead);
            break;
        case 2:
            access(t,
                   wordOf(line, static_cast<unsigned>(
                                    kWordsPerLine / 2 +
                                    rng.below(kWordsPerLine / 2))),
                   AccessKind::DataRead);
            break;
        case 3:
            access(t, syncWord(static_cast<unsigned>(rng.below(kSyncWords))),
                   AccessKind::SyncWrite);
            break;
        default:
            access(t, syncWord(static_cast<unsigned>(rng.below(kSyncWords))),
                   AccessKind::SyncRead);
            break;
        }
    }

    VcDetector &vc() { return vc_; }
    IdealDetector &ideal() { return ideal_; }

  private:
    static Addr
    wordOf(unsigned line, unsigned w)
    {
        return kDataBase + Addr{line} * kLineBytes + Addr{w} * kWordBytes;
    }

    static Addr ownWord(ThreadId t, unsigned line) { return wordOf(line, t); }

    static Addr
    syncWord(unsigned s)
    {
        return kSyncBase + Addr{s} * kLineBytes;
    }

    VcDetector vc_;
    IdealDetector ideal_;
    Tick tick_ = 0;
    std::array<std::uint64_t, kThreads> instrs_{};
};

TEST(DetectorAlloc, SteadyStateOnAccessDoesNotAllocate)
{
    static_assert(kThreads <= kWordsPerLine / 2,
                  "private words must not overlap the read-only half");
    Feeder f;
    Rng rng(7);
    // Warm-up: every word and sync variable once, then a random phase
    // that lets the caches churn through the whole set.
    f.touchWordSet();
    for (int i = 0; i < 20000; ++i)
        f.randomAccess(rng);
    const std::size_t words = f.ideal().trackedWords();

    constexpr int kMeasured = 20000;
    const std::uint64_t displacedBefore =
        f.vc().stats().get("vc.lineDisplacements");
    const std::uint64_t before = gHeapAllocs.load();
    for (int i = 0; i < kMeasured; ++i)
        f.randomAccess(rng);
    const std::uint64_t after = gHeapAllocs.load();

    EXPECT_EQ(after, before)
        << "VC-L2Cache/Ideal onAccess must not allocate in steady state";
    // The stream did what the test needs: it overflowed the VC history
    // caches, added no word to Ideal, and made no race report.
    EXPECT_GT(f.vc().stats().get("vc.lineDisplacements"), displacedBefore);
    EXPECT_EQ(f.ideal().trackedWords(), words);
    EXPECT_EQ(f.vc().races().pairs(), 0u);
    EXPECT_EQ(f.ideal().races().pairs(), 0u);
}

} // namespace
} // namespace cord
