/**
 * @file
 * Golden determinism fixture for the hot-path kernel rewrite.
 *
 * The simulator's core guarantee is bit-exact reproducibility: a fixed
 * seed must produce byte-identical campaign manifests, order logs, and
 * schedule logs, for any worker count, across performance rewrites of
 * the kernel data structures (sim/event_queue.h, sim/stats.h,
 * cord/history_cache.h, runtime/value_store.h).  These digests were
 * recorded from the pre-rewrite (PR <= 4) kernel; any change to them is
 * a determinism regression, not an acceptable side effect of a perf PR
 * (docs/PERFORMANCE.md states the rules).
 *
 * When the fixture must legitimately change (a *semantic* change to
 * detection or logging, never a data-structure swap), re-record with
 *   CORD_PRINT_GOLDEN=1 ./tests/test_determinism_golden
 * and update the constants together with a CHANGES.md note.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "cord/log_codec.h"
#include "harness/experiments.h"
#include "harness/runner.h"
#include "obs/manifest.h"
#include "sched/factory.h"
#include "sched/sched_log.h"

namespace cord
{
namespace
{

/** FNV-1a over a byte range. */
std::uint64_t
fnv1a(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1a(const std::string &s)
{
    return fnv1a(s.data(), s.size());
}

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &v)
{
    return fnv1a(v.data(), v.size());
}

bool
printGolden()
{
    const char *v = std::getenv("CORD_PRINT_GOLDEN");
    return v && *v && *v != '0';
}

void
report(const char *name, std::uint64_t digest)
{
    if (printGolden())
        std::fprintf(stderr, "GOLDEN %s = 0x%016llxULL\n", name,
                     static_cast<unsigned long long>(digest));
}

// Pre-rewrite digests (see the file comment for the re-record rule).
// The campaign-manifest digest was re-recorded once, when the
// git/build stamps moved under includeVolatile: hashing them made the
// golden break on every commit and differ across build flavors, which
// is exactly the volatility the deterministic render exists to
// exclude.  The metrics payload was byte-identical across the move.
constexpr std::uint64_t kGoldenCampaignManifest = 0xb3d77e4beb9a88a3ULL;
constexpr std::uint64_t kGoldenOrderLog = 0xdead6118d9d84b8dULL;
constexpr std::uint64_t kGoldenScheduleLog = 0xaa4fe2a9ad29089cULL;

// Many-core directory fixture (PR 7): same rules, recorded when the
// 16-core directory machine became a first-class configuration.  These
// cover the banked memory timestamps, the sharer-set directory, and
// the per-slice channels; the 4-core snooping goldens above must stay
// untouched by any of that machinery.
constexpr std::uint64_t kGoldenDirectoryManifest = 0x65568e2d17cc9c63ULL;
constexpr std::uint64_t kGoldenDirectoryOrderLog = 0xd793157c69bdce5eULL;

// Server workload tier fixture (PR 9): kvstore at 200% offered load on
// the default 4-core snooping machine.  Covers the reader-writer lock
// sync instances, the integer-exponential arrival schedules, and the
// jittered-spin runtime path the server family runs on; the splash
// goldens above must stay byte-identical to prove the jitter is truly
// opt-in per family.  Re-recorded once, when the open-loop pacer
// became one SpinUntil op per arrival: the server apps' instruction
// counts and same-tick event order changed on purpose.
constexpr std::uint64_t kGoldenServerOrderLog = 0x294ba1db668914b7ULL;

/** The fixture campaign: small but exercises injections, two detector
 *  families, finite + infinite residency, and the walker. */
CampaignConfig
fixtureCampaign(unsigned jobs)
{
    CampaignConfig cfg;
    cfg.workload = "fft";
    cfg.params.numThreads = 4;
    cfg.params.scale = 1;
    cfg.params.seed = 12;
    cfg.injections = 6;
    cfg.seed = 1234;
    cfg.jobs = jobs;
    return cfg;
}

std::string
campaignManifestBytes(unsigned jobs)
{
    const std::vector<DetectorSpec> specs = {cordSpec(16),
                                             vcInfCacheSpec()};
    const CampaignResult r =
        runCampaign(fixtureCampaign(jobs), specs);
    RunManifest m;
    m.tool = "determinism_golden";
    m.seed = 1234;
    m.setConfig("scale", std::uint64_t(1));
    m.setConfig("injections", std::uint64_t(6));
    addCampaignMetrics(m, "fft", r);
    return m.renderJson(/*includeVolatile=*/false);
}

TEST(DeterminismGolden, CampaignManifestBytesJobs1And4)
{
    const std::string j1 = campaignManifestBytes(1);
    report("kGoldenCampaignManifest", fnv1a(j1));
    EXPECT_EQ(fnv1a(j1), kGoldenCampaignManifest)
        << "campaign manifest bytes changed vs. the pre-rewrite golden";
    EXPECT_EQ(j1, campaignManifestBytes(4))
        << "campaign manifest differs between --jobs 1 and --jobs 4";
}

/** 16-core directory fixture: the many-core path under campaign load
 *  (banked memTs, sharer probes, per-slice channels). */
CampaignConfig
directoryFixtureCampaign(unsigned jobs)
{
    CampaignConfig cfg;
    cfg.workload = "fft";
    cfg.params.numThreads = 16;
    cfg.params.scale = 1;
    cfg.params.seed = 12;
    cfg.injections = 6;
    cfg.seed = 1234;
    cfg.jobs = jobs;
    cfg.machine.numCores = 16;
    cfg.machine.coherence = CoherenceKind::Directory;
    return cfg;
}

std::string
directoryManifestBytes(unsigned jobs)
{
    const std::vector<DetectorSpec> specs = {cordSpec(16),
                                             vcInfCacheSpec()};
    const CampaignResult r =
        runCampaign(directoryFixtureCampaign(jobs), specs);
    RunManifest m;
    m.tool = "determinism_golden_dir16";
    m.seed = 1234;
    m.setConfig("scale", std::uint64_t(1));
    m.setConfig("injections", std::uint64_t(6));
    addCampaignMetrics(m, "fft", r);
    return m.renderJson(/*includeVolatile=*/false);
}

TEST(DeterminismGolden, DirectoryManifestBytesJobs1And4)
{
    const std::string j1 = directoryManifestBytes(1);
    report("kGoldenDirectoryManifest", fnv1a(j1));
    EXPECT_EQ(fnv1a(j1), kGoldenDirectoryManifest)
        << "16-core directory campaign manifest bytes changed";
    EXPECT_EQ(j1, directoryManifestBytes(4))
        << "dir16 manifest differs between --jobs 1 and --jobs 4";
}

TEST(DeterminismGolden, DirectoryOrderLogBytes)
{
    RunSetup setup;
    setup.workload = "fft";
    setup.params.numThreads = 16;
    setup.params.scale = 1;
    setup.params.seed = 12;
    setup.machine.numCores = 16;
    setup.machine.coherence = CoherenceKind::Directory;

    CordConfig cc = CordConfig::forMachine(setup.machine, 16);
    CordDetector cord(cc);
    setup.detectors = {&cord};

    const RunOutcome out = runWorkload(setup);
    EXPECT_TRUE(out.completed);
    const std::vector<std::uint8_t> wire = encodeOrderLog(cord.orderLog());
    ASSERT_FALSE(wire.empty());
    report("kGoldenDirectoryOrderLog", fnv1a(wire));
    EXPECT_EQ(fnv1a(wire), kGoldenDirectoryOrderLog)
        << "16-core directory order-log bytes changed";
}

TEST(DeterminismGolden, OrderLogBytes)
{
    RunSetup setup;
    setup.workload = "fft";
    setup.params.numThreads = 4;
    setup.params.scale = 1;
    setup.params.seed = 12;

    CordConfig cc;
    cc.numCores = setup.machine.numCores;
    cc.numThreads = 4;
    CordDetector cord(cc);
    setup.detectors = {&cord};

    const RunOutcome out = runWorkload(setup);
    EXPECT_TRUE(out.completed);
    const std::vector<std::uint8_t> wire = encodeOrderLog(cord.orderLog());
    ASSERT_FALSE(wire.empty());
    report("kGoldenOrderLog", fnv1a(wire));
    EXPECT_EQ(fnv1a(wire), kGoldenOrderLog)
        << "order-log bytes changed vs. the pre-rewrite golden";
}

TEST(DeterminismGolden, ServerOrderLogBytes)
{
    RunSetup setup;
    setup.workload = "kvstore";
    setup.params.numThreads = 4;
    setup.params.scale = 1;
    setup.params.seed = 12;
    setup.params.loadPercent = 200;

    const CordConfig cc = CordConfig::forMachine(setup.machine, 4);
    auto oneRun = [&] {
        CordDetector cord(cc);
        RunSetup s = setup;
        s.detectors = {&cord};
        const RunOutcome out = runWorkload(s);
        EXPECT_TRUE(out.completed);
        return encodeOrderLog(cord.orderLog());
    };
    const std::vector<std::uint8_t> wire = oneRun();
    ASSERT_FALSE(wire.empty());
    EXPECT_EQ(wire, oneRun())
        << "jittered spin must still be deterministic per seed";
    report("kGoldenServerOrderLog", fnv1a(wire));
    EXPECT_EQ(fnv1a(wire), kGoldenServerOrderLog)
        << "server-tier order-log bytes changed";
}

/**
 * Campaign-manifest digest table (ROADMAP item 2's prerequisite):
 * every workload's `cordsim --campaign 12 --scale 1` campaign (seed 1,
 * CORD-D16 + VC-L2Cache), plus a thread-migration machine and a
 * 16-core directory machine.  lu, radix and the migration row contain
 * runs that hit the watchdog, so a change to how hung runs end or are
 * counted shows here too.  Same re-record rule as the goldens above.
 */
struct CampaignGoldenRow
{
    const char *name;
    const char *workload;
    unsigned threads;
    unsigned cores;
    bool directory;
    std::uint64_t migrate; //!< MachineConfig::migrationPeriodInstrs
    bool hangs;            //!< the campaign must contain hung runs
    std::uint64_t digest;
};

constexpr CampaignGoldenRow kGoldenCampaignTable[] = {
    {"barnes", "barnes", 4, 4, false, 0, false, 0xcc2fc61bfe294df2ULL},
    {"cholesky", "cholesky", 4, 4, false, 0, false, 0x1d7aa48811ce2e12ULL},
    {"fft", "fft", 4, 4, false, 0, false, 0x72ab3f461b6cee21ULL},
    {"fmm", "fmm", 4, 4, false, 0, false, 0x7b4ae406800b7834ULL},
    {"lu", "lu", 4, 4, false, 0, true, 0x642188a5a4fb404fULL},
    {"ocean", "ocean", 4, 4, false, 0, false, 0x18f56fb4df6bd21dULL},
    {"radiosity", "radiosity", 4, 4, false, 0, false, 0x2601189505e5e462ULL},
    {"radix", "radix", 4, 4, false, 0, true, 0x5344415e95c004eeULL},
    {"raytrace", "raytrace", 4, 4, false, 0, false, 0x474ca07b9f5dbd87ULL},
    {"volrend", "volrend", 4, 4, false, 0, false, 0x5835f2ad3758e317ULL},
    {"water_n2", "water-n2", 4, 4, false, 0, false, 0x13d98379b62b4ecfULL},
    {"water_sp", "water-sp", 4, 4, false, 0, false, 0x6a74f3d864c213e0ULL},
    {"kvstore", "kvstore", 4, 4, false, 0, false, 0x3ae24f99a588a960ULL},
    {"worksteal", "worksteal", 4, 4, false, 0, false, 0x97a6bc2e1a15c08aULL},
    {"rcureg", "rcureg", 4, 4, false, 0, false, 0x2635d0596950cc34ULL},
    // Re-recorded with kGoldenServerOrderLog (the SpinUntil pacer).
    {"eventloop", "eventloop", 4, 4, false, 0, false, 0xb351147c0c055093ULL},
    {"fft_migrate500", "fft", 4, 4, false, 500, true, 0xa64f1ea3ab69f88bULL},
    {"barnes_dir16", "barnes", 16, 16, true, 0, false, 0x199bdbb21a79d4a6ULL},
};

/** The row's campaign as `cordsim --campaign 12 --scale 1` (seed 1)
 *  configures it, rendered like the fixture manifests above. */
std::string
tableManifestBytes(const CampaignGoldenRow &row, unsigned jobs,
                   CampaignResult *out = nullptr)
{
    CampaignConfig cfg;
    cfg.workload = row.workload;
    cfg.params.numThreads = row.threads;
    cfg.params.scale = 1;
    cfg.params.seed = 12;
    cfg.machine.numCores = row.cores;
    if (row.directory)
        cfg.machine.coherence = CoherenceKind::Directory;
    cfg.machine.migrationPeriodInstrs = row.migrate;
    cfg.injections = 12;
    cfg.seed = 114;
    cfg.jobs = jobs;
    const CampaignResult r =
        runCampaign(cfg, {cordSpec(16), vcL2CacheSpec()});
    if (out)
        *out = r;
    RunManifest m;
    m.tool = "determinism_golden_table";
    m.seed = 1;
    m.setConfig("scale", std::uint64_t(1));
    m.setConfig("injections", std::uint64_t(12));
    addCampaignMetrics(m, row.workload, r);
    return m.renderJson(/*includeVolatile=*/false);
}

/** gtest prints a failing parameter with this instead of its bytes. */
void
PrintTo(const CampaignGoldenRow &row, std::ostream *os)
{
    *os << row.name;
}

class CampaignGoldenTable
    : public ::testing::TestWithParam<CampaignGoldenRow>
{
};

TEST_P(CampaignGoldenTable, ManifestBytesJobs1And4)
{
    const CampaignGoldenRow &row = GetParam();
    CampaignResult r;
    const std::string j1 = tableManifestBytes(row, 1, &r);
    report((std::string("kGoldenCampaignTable[") + row.name + "]").c_str(),
           fnv1a(j1));
    EXPECT_EQ(fnv1a(j1), row.digest)
        << row.name << ": campaign manifest bytes changed";
    if (row.hangs) {
        EXPECT_GT(r.timeouts, 0u)
            << row.name << ": the row no longer covers hung runs";
    }
    EXPECT_EQ(j1, tableManifestBytes(row, 4))
        << row.name << ": manifest differs between --jobs 1 and 4";
}

INSTANTIATE_TEST_SUITE_P(
    Table, CampaignGoldenTable, ::testing::ValuesIn(kGoldenCampaignTable),
    [](const ::testing::TestParamInfo<CampaignGoldenRow> &p) {
        return std::string(p.param.name);
    });

/**
 * Overhead-decomposition digest table: the addProfileMetrics manifest
 * of runProfile("fft") at scale 4 on the default 4-core snooping
 * machine and on a 16-core directory machine.  The directory machine
 * charges one probe per sharer for every race check, so a counter that
 * moves to the wrong charge site changes its row.  Same re-record rule
 * as the goldens above.
 */
struct ProfileGoldenRow
{
    const char *name;
    unsigned threads;
    unsigned cores;
    bool directory;
    std::uint64_t digest;
};

constexpr ProfileGoldenRow kGoldenProfileTable[] = {
    {"fft_snoop4", 4, 4, false, 0x1baaf47b48e5b056ULL},
    {"fft_dir16", 16, 16, true, 0xb499118a9010f50bULL},
};

void
PrintTo(const ProfileGoldenRow &row, std::ostream *os)
{
    *os << row.name;
}

class ProfileGoldenTable : public ::testing::TestWithParam<ProfileGoldenRow>
{
};

TEST_P(ProfileGoldenTable, ManifestBytes)
{
    const ProfileGoldenRow &row = GetParam();
    WorkloadParams params;
    params.numThreads = row.threads;
    params.scale = 4;
    params.seed = 12;
    MachineConfig machine;
    machine.numCores = row.cores;
    if (row.directory)
        machine.coherence = CoherenceKind::Directory;
    const CordConfig cc = CordConfig::forMachine(machine, row.threads);

    RunManifest m;
    m.tool = "determinism_golden_profile";
    m.seed = 12;
    m.setConfig("scale", std::uint64_t(4));
    addProfileMetrics(m, runProfile("fft", params, machine, cc));
    const std::string bytes = m.renderJson(/*includeVolatile=*/false);
    report((std::string("kGoldenProfileTable[") + row.name + "]").c_str(),
           fnv1a(bytes));
    EXPECT_EQ(fnv1a(bytes), row.digest)
        << row.name << ": profile manifest bytes changed";
}

INSTANTIATE_TEST_SUITE_P(
    Table, ProfileGoldenTable, ::testing::ValuesIn(kGoldenProfileTable),
    [](const ::testing::TestParamInfo<ProfileGoldenRow> &p) {
        return std::string(p.param.name);
    });

/**
 * Many-core digest table: one 72-core, 72-thread barnes run (scale 1,
 * known races kept) on a snooping and on a directory machine.  Past 64
 * cores a sharer set no longer fits one 64-bit mask, so these rows pin
 * the remote-history visits of both history-cache detectors there: a
 * forMachine CORD charged to the buses (timingCord), VC-L2Cache and
 * Ideal.  Each digest covers sim.ticks, the cord.* and vc.* stats, all
 * three race-pair counts and CORD's order-log bytes.  Same re-record
 * rule as the goldens above.
 */
struct ManyCoreGoldenRow
{
    const char *name;
    bool directory;
    std::uint64_t digest;
};

constexpr ManyCoreGoldenRow kGoldenManyCoreTable[] = {
    {"barnes_snoop72", false, 0x75f57a3f2e4b86f3ULL},
    {"barnes_dir72", true, 0x41566307952d7156ULL},
};

void
PrintTo(const ManyCoreGoldenRow &row, std::ostream *os)
{
    *os << row.name;
}

class ManyCoreGoldenTable
    : public ::testing::TestWithParam<ManyCoreGoldenRow>
{
};

TEST_P(ManyCoreGoldenTable, RunDigest)
{
    const ManyCoreGoldenRow &row = GetParam();
    constexpr unsigned kCores = 72;
    RunSetup setup;
    setup.workload = "barnes";
    setup.params.numThreads = kCores;
    setup.params.scale = 1;
    setup.params.seed = 12;
    setup.params.includeKnownRaces = true;
    setup.machine.numCores = kCores;
    if (row.directory)
        setup.machine.coherence = CoherenceKind::Directory;

    CordDetector cord(CordConfig::forMachine(setup.machine, kCores));
    const std::unique_ptr<Detector> vc =
        vcL2CacheSpec().make(setup.machine, kCores);
    IdealDetector ideal(kCores);
    setup.detectors = {&cord, vc.get(), &ideal};
    setup.timingCord = &cord;
    const RunOutcome out = runWorkload(setup);
    ASSERT_TRUE(out.completed);

    RunManifest m;
    m.tool = "determinism_golden_manycore";
    m.seed = 12;
    m.simTicks = out.ticks;
    m.metrics.add("detector.cord", cord.stats());
    m.metrics.add("detector.vc", vc->stats());
    StatRegistry races;
    races.set("races.cord", cord.races().pairs());
    races.set("races.vc", vc->races().pairs());
    races.set("races.ideal", ideal.races().pairs());
    m.metrics.add("", races);
    const std::vector<std::uint8_t> wire = encodeOrderLog(cord.orderLog());
    ASSERT_FALSE(wire.empty());
    const std::string bytes = m.renderJson(/*includeVolatile=*/false) +
                              std::string(wire.begin(), wire.end());
    report((std::string("kGoldenManyCoreTable[") + row.name + "]").c_str(),
           fnv1a(bytes));
    EXPECT_EQ(fnv1a(bytes), row.digest)
        << row.name << ": many-core run digest changed";
}

INSTANTIATE_TEST_SUITE_P(
    Table, ManyCoreGoldenTable, ::testing::ValuesIn(kGoldenManyCoreTable),
    [](const ::testing::TestParamInfo<ManyCoreGoldenRow> &p) {
        return std::string(p.param.name);
    });

TEST(DeterminismGolden, ScheduleLogBytes)
{
    SchedOptions opts;
    opts.kind = SchedKind::Perturb;
    auto policy = makeSchedulePolicy(opts, /*campaignSeed=*/77,
                                     /*runIdx=*/0, /*schedIdx=*/1);

    RunSetup setup;
    setup.workload = "fft";
    setup.params.numThreads = 4;
    setup.params.scale = 1;
    setup.params.seed = 12;
    setup.sched = policy.get();
    ScheduleLog log;
    setup.recordSched = &log;

    const RunOutcome out = runWorkload(setup);
    EXPECT_TRUE(out.completed);
    log.policyKind = static_cast<std::uint64_t>(SchedKind::Perturb);
    log.seed = scheduleSeed(77, 0, 1);
    log.numThreads = 4;
    log.signature = out.interleavingSignature;
    const std::vector<std::uint8_t> wire = encodeScheduleLog(log);
    ASSERT_FALSE(wire.empty());
    report("kGoldenScheduleLog", fnv1a(wire));
    EXPECT_EQ(fnv1a(wire), kGoldenScheduleLog)
        << "schedule-log bytes changed vs. the pre-rewrite golden";
}

} // namespace
} // namespace cord
