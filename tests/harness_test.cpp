/**
 * @file
 * Unit tests for the experiment harness (harness/experiments.h,
 * harness/table.h): campaign mechanics, detector spec factories,
 * determinism, perf comparison plumbing, and table formatting.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiments.h"
#include "harness/table.h"

namespace cord
{
namespace
{

CampaignConfig
smallCampaign(const std::string &app)
{
    CampaignConfig cfg;
    cfg.workload = app;
    cfg.params.scale = 1;
    cfg.params.seed = 41;
    cfg.injections = 8;
    cfg.seed = 5;
    return cfg;
}

TEST(Harness, CampaignCountsAreConsistent)
{
    const CampaignResult r =
        runCampaign(smallCampaign("lu"), {cordSpec(16), vcL2CacheSpec()});
    EXPECT_EQ(r.injections, 8u);
    EXPECT_EQ(r.cleanIdealRaces, 0u);
    EXPECT_LE(r.manifested, r.injections);
    EXPECT_GT(r.totalInstances, 0u);
    for (const auto &[label, n] : r.problems)
        EXPECT_LE(n, r.manifested) << label;
    // Detection rates are bounded by 1 vs Ideal by construction.
    EXPECT_LE(r.problemRateVsIdeal("CORD-D16"), 1.0);
    EXPECT_LE(r.problemRateVsIdeal("VC-L2Cache"), 1.0);
}

TEST(Harness, CampaignIsDeterministic)
{
    const CampaignResult a =
        runCampaign(smallCampaign("radix"), {cordSpec(16)});
    const CampaignResult b =
        runCampaign(smallCampaign("radix"), {cordSpec(16)});
    EXPECT_EQ(a.manifested, b.manifested);
    EXPECT_EQ(a.idealRawRaces, b.idealRawRaces);
    EXPECT_EQ(a.rawRaces, b.rawRaces);
    EXPECT_EQ(a.problems, b.problems);
}

TEST(Harness, SpecFactoriesConfigureDetectors)
{
    const MachineConfig machine;
    auto cordDet = cordSpec(64).make(machine, 4);
    EXPECT_EQ(cordDet->name(), "CORD-D64");
    auto inf = vcInfCacheSpec().make(machine, 4);
    auto l1 = vcL1CacheSpec().make(machine, 4);
    EXPECT_EQ(inf->name(), "VC-InfCache");
    EXPECT_EQ(l1->name(), "VC-L1Cache");

    CordConfig ablate;
    ablate.entriesPerLine = 1;
    MachineConfig small;
    small.numCores = 2;
    auto one = cordSpecWith(ablate, "one").make(small, 8);
    EXPECT_EQ(one->name(), "one");
    EXPECT_EQ(one->geometry().cores, 2u);
    EXPECT_EQ(one->geometry().threads, 8u);

    // Directory machines automatically get per-slice memTs banking.
    MachineConfig dir;
    dir.numCores = 16;
    dir.coherence = CoherenceKind::Directory;
    auto banked = cordSpec(16).make(dir, 16);
    const auto *cd = dynamic_cast<CordDetector *>(banked.get());
    ASSERT_NE(cd, nullptr);
    EXPECT_EQ(cd->config().memTsBanks, 16u);
}

TEST(Harness, RatioHelpersHandleMissingLabels)
{
    CampaignResult r;
    EXPECT_EQ(r.problemRateVsIdeal("nope"), 0.0);
    EXPECT_EQ(r.rawRateVs("a", "b"), 0.0);
    EXPECT_EQ(r.manifestationRate(), 0.0);
}

TEST(Harness, PerfComparisonProducesBothSides)
{
    WorkloadParams params;
    params.scale = 1;
    params.seed = 3;
    MachineConfig machine;
    machine.computeScale = 8;
    CordConfig cord;
    const PerfPoint p = runPerf("ocean", params, machine, cord);
    EXPECT_GT(p.baselineTicks, 0u);
    EXPECT_GT(p.cordTicks, 0u);
    EXPECT_GT(p.syncInstances, 0u);
    // CORD attached must produce some check traffic.
    EXPECT_GT(p.raceCheckTraffic, 0u);
    // Overhead should be small but sane (well under 2x).
    EXPECT_LT(p.relative(), 2.0);
    EXPECT_GT(p.relative(), 0.5);

    // The CORD run's bus-charge tally, on the default snooping machine
    // and on a 16-core directory machine (one probe per sharer).
    for (const bool directory : {false, true}) {
        SCOPED_TRACE(directory ? "dir16" : "snoop4");
        WorkloadParams fp;
        fp.numThreads = directory ? 16 : 4;
        fp.scale = 4;
        fp.seed = 3;
        MachineConfig m;
        m.numCores = fp.numThreads;
        if (directory)
            m.coherence = CoherenceKind::Directory;
        const CordConfig cc = CordConfig::forMachine(m, fp.numThreads);
        const PerfPoint f = runPerf("fft", fp, m, cc);
        const CordCharges &c = f.cordCharges;
        // Every memory-timestamp update is one fold charge, and a check
        // is charged only when it is not folded into a miss.
        EXPECT_EQ(c.timestamp.charges + c.history.charges, f.memTsTraffic);
        EXPECT_LE(c.check.charges, f.raceCheckTraffic);
        EXPECT_GT(c.check.charges, 0u);
        EXPECT_GE(c.check.cycles, c.check.charges);

        // CORD attached but not timing-coupled: nothing is charged.
        CordDetector uncoupled(cc);
        RunSetup plain;
        plain.workload = "fft";
        plain.params = fp;
        plain.machine = m;
        plain.detectors = {&uncoupled};
        const CordCharges z = runWorkload(plain).cordCharges;
        for (const CordCharges::Mechanism &mech :
             {z.check, z.timestamp, z.history}) {
            EXPECT_EQ(mech.cycles, 0u);
            EXPECT_EQ(mech.charges, 0u);
        }
    }
}

/** Run shell command @p cmd; @p out gets its output, returns its
 *  exit status (-1 when it did not exit). */
int
runCommand(const std::string &cmd, std::string &out)
{
    std::FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return -1;
    out.clear();
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe))
        out += buf;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** bench_common.h: a list knob that is set but names nothing is an
 *  error, not an empty table or a silent default sweep. */
TEST(BenchEnv, Fig11RejectsEmptyAppList)
{
    std::string out;
    EXPECT_EQ(runCommand(std::string("CORD_APPS=, ") + BENCH_FIG11_BIN,
                         out),
              2)
        << out;
    EXPECT_NE(out.find("CORD_APPS named no apps"), std::string::npos)
        << out;
}

/** Column @p col of the rows of the table titled @p title in @p out
 *  (TextTable::print layout), keyed by each row's first cell. */
std::map<std::string, std::string>
tableColumn(const std::string &out, const std::string &title,
            std::size_t col)
{
    std::map<std::string, std::string> cells;
    std::istringstream in(out.substr(out.find("== " + title + " ==")));
    std::string line;
    std::getline(in, line); // the title
    while (std::getline(in, line) && line.rfind("== ", 0) != 0) {
        std::istringstream row(line);
        const std::vector<std::string> tok{
            std::istream_iterator<std::string>(row),
            std::istream_iterator<std::string>()};
        if (tok.size() > col)
            cells[tok[0]] = tok[col];
    }
    return cells;
}

/** bench_fig11 prints Figure 11 and the directory extension from one
 *  run pair per app and machine: its stdout does not depend on --jobs,
 *  and each app's snooping column in the directory table is its
 *  Figure 11 row. */
TEST(BenchEnv, Fig11TablesShareOneRunPairPerApp)
{
    const std::string fig11 =
        "Figure 11: execution time with CORD relative to baseline";
    const std::string dir =
        "Extension: CORD overhead, snooping vs directory coherence";
    std::string out1, out2;
    // The subshell drops bench_fig11's stderr progress lines.
    const std::string cmd =
        std::string("(CORD_APPS=fft,lu CORD_SCALE=1 ") + BENCH_FIG11_BIN +
        " --jobs ";
    ASSERT_EQ(runCommand(cmd + "1 2>/dev/null)", out1), 0) << out1;
    ASSERT_EQ(runCommand(cmd + "2 2>/dev/null)", out2), 0) << out2;
    EXPECT_EQ(out1, out2);
    ASSERT_NE(out1.find("== " + fig11 + " =="), std::string::npos) << out1;
    ASSERT_NE(out1.find("== " + dir + " =="), std::string::npos) << out1;

    // Relative is column 3 of Figure 11, Snoop rel column 3 of the
    // directory table.
    const auto rel = tableColumn(out1, fig11, 3);
    const auto snoopRel = tableColumn(out1, dir, 3);
    for (const std::string app : {"fft", "lu"}) {
        ASSERT_TRUE(rel.count(app)) << app << "\n" << out1;
        ASSERT_TRUE(snoopRel.count(app)) << app << "\n" << out1;
        EXPECT_EQ(rel.at(app), snoopRel.at(app)) << app;
        EXPECT_NE(rel.at(app).find('%'), std::string::npos) << app;
    }
}

TEST(BenchEnv, DetectionRejectsFlagsItDoesNotRead)
{
    // bench_detection prints text tables only: --json must fail
    // loudly, and the usage line names just the flags it reads.  (The
    // tiny campaign keeps a binary that accepts the flag quick.)
    std::string out;
    EXPECT_EQ(runCommand(std::string("CORD_APPS=fft CORD_SCALE=1 "
                                     "CORD_INJECTIONS=1 ") +
                             BENCH_DETECTION_BIN + " --json",
                         out),
              2)
        << out;
    EXPECT_NE(out.find("[--jobs N] [--manifest FILE] [--load N]"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("--json"), std::string::npos) << out;
}

TEST(TextTableFormat, PercentAndNum)
{
    EXPECT_EQ(TextTable::percent(0.5), "50.0%");
    EXPECT_EQ(TextTable::percent(1.0345, 2), "103.45%");
    EXPECT_EQ(TextTable::percent(0.0), "0.0%");
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTableFormatDeath, MismatchedRowWidthPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

} // namespace
} // namespace cord
