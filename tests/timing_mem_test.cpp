/**
 * @file
 * Unit tests for the MESI timing memory system (mem/timing_mem.h):
 * hit/miss classification, cache-to-cache supply, write upgrades,
 * remote invalidation, inclusion, the L2 holder sets, and CORD traffic
 * charging.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "mem/timing_mem.h"
#include "sim/rng.h"

namespace cord
{
namespace
{

MachineConfig
cfg()
{
    return MachineConfig{};
}

TEST(TimingMem, ColdMissGoesToMemory)
{
    TimingMemSystem m(cfg());
    const TimingResult r = m.access(0, 0x10000, false, 0);
    EXPECT_EQ(r.source, ServiceSource::Memory);
    EXPECT_TRUE(r.usedAddrBus);
    EXPECT_GE(r.completion, cfg().memoryLatency);
}

TEST(TimingMem, SecondAccessHitsL1)
{
    TimingMemSystem m(cfg());
    m.access(0, 0x10000, false, 0);
    const TimingResult r = m.access(0, 0x10004, false, 1000);
    EXPECT_EQ(r.source, ServiceSource::L1Hit);
    EXPECT_EQ(r.completion, 1000 + cfg().l1HitLatency);
    EXPECT_FALSE(r.usedAddrBus);
}

TEST(TimingMem, RemoteCopySuppliesCacheToCache)
{
    TimingMemSystem m(cfg());
    m.access(0, 0x10000, false, 0);
    const TimingResult r = m.access(1, 0x10000, false, 1000);
    EXPECT_EQ(r.source, ServiceSource::CacheToCache);
    EXPECT_LE(r.completion, 1000 + cfg().cacheToCacheLatency + 16);
}

TEST(TimingMem, WriteInvalidatesRemoteCopies)
{
    TimingMemSystem m(cfg());
    m.access(0, 0x10000, false, 0);    // core 0: E
    m.access(1, 0x10000, false, 100);  // both S
    m.access(2, 0x10000, true, 200);   // core 2: BusRdX

    // Cores 0 and 1 must miss now; core 2 supplies cache-to-cache.
    const TimingResult r0 = m.access(0, 0x10000, false, 1000);
    EXPECT_EQ(r0.source, ServiceSource::CacheToCache);
}

TEST(TimingMem, WriteHitOnSharedNeedsUpgrade)
{
    TimingMemSystem m(cfg());
    m.access(0, 0x10000, false, 0);
    m.access(1, 0x10000, false, 100); // S in both

    const TimingResult r = m.access(0, 0x10000, true, 1000);
    EXPECT_TRUE(r.usedAddrBus) << "S->M upgrade is a bus transaction";
    // Remote copy invalidated.
    const TimingResult r1 = m.access(1, 0x10000, false, 2000);
    EXPECT_EQ(r1.source, ServiceSource::CacheToCache);
}

TEST(TimingMem, WriteHitOnExclusiveIsSilent)
{
    TimingMemSystem m(cfg());
    m.access(0, 0x10000, false, 0); // E
    const std::uint64_t txnsBefore = m.addrBus().transactions();
    const TimingResult r = m.access(0, 0x10000, true, 1000);
    EXPECT_FALSE(r.usedAddrBus);
    EXPECT_EQ(r.source, ServiceSource::L1Hit);
    EXPECT_EQ(m.addrBus().transactions(), txnsBefore);
}

TEST(TimingMem, L2HitAfterL1Eviction)
{
    // Touch enough distinct lines to overflow the 8KB L1 (128 lines)
    // but not the 32KB L2; an early line then hits in L2, not L1.
    TimingMemSystem m(cfg());
    for (unsigned i = 0; i < 256; ++i)
        m.access(0, 0x100000 + i * kLineBytes, false, i * 1000);
    const TimingResult r = m.access(0, 0x100000, false, 10000000);
    EXPECT_EQ(r.source, ServiceSource::L2Hit);
    EXPECT_EQ(r.completion, 10000000 + cfg().l2HitLatency);
}

TEST(TimingMem, DirtyEvictionChargesWritebackBuses)
{
    TimingMemSystem m(cfg());
    // Make many dirty lines in one core and overflow its L2.
    const std::uint64_t memTxns0 = m.memBus().transactions();
    for (unsigned i = 0; i < 1024; ++i)
        m.access(0, 0x200000 + i * kLineBytes, true, i * 1000);
    EXPECT_GT(m.memBus().transactions(),
              memTxns0 + 1024) // 1024 fetches + >0 writebacks
        << "M-line evictions must write back";
}

TEST(TimingMem, ServiceCountsAccumulate)
{
    TimingMemSystem m(cfg());
    m.access(0, 0x10000, false, 0);
    m.access(0, 0x10000, false, 1000);
    m.access(1, 0x10000, false, 2000);
    EXPECT_EQ(m.serviceCount(ServiceSource::Memory), 1u);
    EXPECT_EQ(m.serviceCount(ServiceSource::L1Hit), 1u);
    EXPECT_EQ(m.serviceCount(ServiceSource::CacheToCache), 1u);
}

TEST(TimingMem, RaceCheckAndMemTsChargesAddrBusOnly)
{
    TimingMemSystem m(cfg());
    const std::uint64_t data0 = m.dataBus().transactions();
    const CoreId sharers[] = {1, 2};
    m.chargeRaceCheck(0, 0x40000, sharers);
    m.chargeMemTsBroadcast(10, 0x40000);
    EXPECT_EQ(m.addrBus().transactions(), 2u);
    EXPECT_EQ(m.dataBus().transactions(), data0);
}

TEST(TimingMem, DirectoryProbesChargeEachSharersSlicePast64Cores)
{
    MachineConfig c = cfg();
    c.coherence = CoherenceKind::Directory;
    c.numCores = 72;
    TimingMemSystem m(c);
    // Slice s homes line s (line-interleaved); the check homes on 10.
    auto slice = [&](unsigned s) -> const BusChannel & {
        return m.sliceBus(Addr(s) * kLineBytes);
    };
    const CoreId sharers[] = {3, 70};
    m.chargeRaceCheck(0, Addr(10) * kLineBytes, sharers);
    for (unsigned s = 0; s < c.numCores; ++s) {
        const bool charged = s == 3 || s == 10 || s == 70;
        EXPECT_EQ(slice(s).transactions(), charged ? 1u : 0u)
            << "slice " << s;
    }
}

TEST(TimingMem, AddrBusContentionDelaysMisses)
{
    TimingMemSystem m(cfg());
    // Saturate the address bus with race checks, then issue a miss.
    const CoreId sharer[] = {1};
    for (int i = 0; i < 100; ++i)
        m.chargeRaceCheck(0, 0x30000, sharer);
    const TimingResult r = m.access(0, 0x30000, false, 0);
    EXPECT_GT(r.completion, cfg().memoryLatency + 500u)
        << "miss must queue behind the check burst";
}

/** One machine shape for the holder-set invariant. */
struct HolderCase
{
    unsigned cores;
    CoherenceKind coherence;
};

void
PrintTo(const HolderCase &c, std::ostream *os)
{
    *os << c.cores
        << (c.coherence == CoherenceKind::Directory ? "_dir" : "_snoop");
}

class TimingMemHolders : public ::testing::TestWithParam<HolderCase>
{
};

TEST_P(TimingMemHolders, HolderSetsMatchL2ScanAndL1IsInclusive)
{
    // Random reads and writes by every core over 16 lines, with 8-line
    // L2s and 4-line L1s, give upgrades, cache-to-cache transfers and
    // evictions.  After every access each line's holder set must equal
    // a scan of every L2 for a valid copy, and every L1 line must be
    // in its core's L2.  Half the lines sit 1GB away, on another page
    // of the holder table; 72 cores spill past one 64-core mask.
    const HolderCase hc = GetParam();
    MachineConfig c = cfg();
    c.numCores = hc.cores;
    c.coherence = hc.coherence;
    c.l1 = CacheGeometry{256, kLineBytes, 2};
    c.l2 = CacheGeometry{512, kLineBytes, 2};
    TimingMemSystem m(c);
    Rng rng(hc.cores + static_cast<unsigned>(hc.coherence));
    constexpr unsigned kLines = 16;
    auto lineOf = [](unsigned l) {
        return Addr{0x10000} + Addr{l % 8} * kLineBytes +
               Addr{l / 8} * (Addr{1} << 30);
    };

    std::uint64_t upgrades = 0, evictions = 0;
    Tick now = 0;
    for (int step = 0; step < 4000; ++step) {
        const auto core = static_cast<CoreId>(rng.below(hc.cores));
        const unsigned target = static_cast<unsigned>(rng.below(kLines));
        const bool isWrite = rng.below(3) == 0;
        std::vector<bool> heldBefore(kLines);
        for (unsigned l = 0; l < kLines; ++l)
            heldBefore[l] = m.l2State(core, lineOf(l)) != Mesi::Invalid;

        const TimingResult r =
            m.access(core, lineOf(target) + rng.below(16) * 4, isWrite, now);
        now += 50;
        if (r.usedAddrBus && (r.source == ServiceSource::L1Hit ||
                              r.source == ServiceSource::L2Hit))
            ++upgrades;
        for (unsigned l = 0; l < kLines; ++l)
            if (l != target && heldBefore[l] &&
                m.l2State(core, lineOf(l)) == Mesi::Invalid)
                ++evictions;

        for (unsigned l = 0; l < kLines; ++l) {
            for (unsigned k = 0; k < hc.cores; ++k) {
                const auto id = static_cast<CoreId>(k);
                const bool valid =
                    m.l2State(id, lineOf(l)) != Mesi::Invalid;
                ASSERT_EQ(m.holds(id, lineOf(l)), valid)
                    << "step " << step << ", line " << l << ", core " << k;
                ASSERT_TRUE(!m.inL1(id, lineOf(l)) || valid)
                    << "step " << step << ", line " << l << ", core " << k
                    << ": L1 line missing from L2";
            }
        }
    }
    EXPECT_GT(upgrades, 0u);
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(m.serviceCount(ServiceSource::CacheToCache), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, TimingMemHolders,
    ::testing::Values(HolderCase{4, CoherenceKind::Snooping},
                      HolderCase{4, CoherenceKind::Directory},
                      HolderCase{72, CoherenceKind::Snooping},
                      HolderCase{72, CoherenceKind::Directory}),
    [](const ::testing::TestParamInfo<HolderCase> &p) {
        return std::to_string(p.param.cores) +
               (p.param.coherence == CoherenceKind::Directory ? "_dir"
                                                              : "_snoop");
    });

} // namespace
} // namespace cord
