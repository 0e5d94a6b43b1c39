/**
 * @file
 * The forked campaign fan-out (harness/trunk.h): its results equal
 * fresh runs field by field, with flagged and unflagged children alike,
 * a detector scores the same whatever other detectors ride along,
 * duplicate picks share one child, and a child that crashes, throws or
 * sends a short record fails the campaign loudly without a single run
 * counted or a child left behind.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiments.h"
#include "harness/flight.h"
#include "obs/json.h"

namespace cord
{
namespace
{

CampaignConfig
campaignOf(const std::string &workload, unsigned injections, unsigned jobs)
{
    CampaignConfig cfg;
    cfg.workload = workload;
    cfg.params.numThreads = 4;
    cfg.params.scale = 1;
    cfg.params.seed = 12;
    cfg.params.loadPercent = 200;
    cfg.injections = injections;
    cfg.seed = 114;
    cfg.jobs = jobs;
    return cfg;
}

/** A no-op per-run hook: it selects the fresh-run fan-out. */
CampaignConfig
fresh(CampaignConfig cfg)
{
    cfg.onRunDone = [](const CampaignRunView &) {};
    return cfg;
}

/** Every field that does not depend on the spec detectors. */
void
expectSameIdealFields(const CampaignResult &a, const CampaignResult &b)
{
    EXPECT_EQ(a.injections, b.injections);
    EXPECT_EQ(a.schedules, b.schedules);
    EXPECT_EQ(a.manifested, b.manifested);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.scheduleRuns, b.scheduleRuns);
    EXPECT_EQ(a.totalInstances, b.totalInstances);
    EXPECT_EQ(a.cleanIdealRaces, b.cleanIdealRaces);
    EXPECT_EQ(a.timedOutRuns, b.timedOutRuns);
    EXPECT_EQ(a.idealRawRaces, b.idealRawRaces);
    EXPECT_EQ(a.distinctSignatures, b.distinctSignatures);
    EXPECT_EQ(a.manifestedCum, b.manifestedCum);
}

void
expectSameResult(const CampaignResult &a, const CampaignResult &b)
{
    expectSameIdealFields(a, b);
    EXPECT_EQ(a.problems, b.problems);
    EXPECT_EQ(a.rawRaces, b.rawRaces);
}

/** True when this process has no child left, reaped or not. */
bool
noChildren()
{
    return ::waitpid(-1, nullptr, WNOHANG) < 0 && errno == ECHILD;
}

std::vector<DetectorSpec>
campaignSpecs()
{
    return {cordSpec(16), vcL2CacheSpec()};
}

TEST(CampaignFork, MatchesFreshRuns)
{
    for (const char *workload : {"lu", "kvstore", "barnes"}) {
        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(std::string(workload) + " at jobs " +
                         std::to_string(jobs));
            const CampaignConfig cfg = campaignOf(workload, 12, jobs);
            const CampaignResult forked =
                runCampaign(cfg, campaignSpecs());
            EXPECT_TRUE(noChildren());
            expectSameResult(forked,
                             runCampaign(fresh(cfg), campaignSpecs()));
            if (std::string(workload) == "lu") {
                EXPECT_GT(forked.timeouts, 0u)
                    << "lu must cover children that hit the watchdog";
            } else {
                // Both kinds of child: flagged ones release their
                // parked spec detectors, unflagged ones never feed them.
                EXPECT_GT(forked.manifested, 0u);
                EXPECT_LT(forked.manifested, forked.scheduleRuns);
            }
        }
    }
}

/** CORD at D = 16 with one setting changed by @p edit. */
template <typename Edit>
DetectorSpec
cordVariant(std::string label, Edit edit)
{
    CordConfig c;
    edit(c);
    return cordSpecWith(c, std::move(label));
}

/** CORD at D = 16 with a @p kb KB, @p ways-way history residency. */
DetectorSpec
cordCapacity(std::string label, std::uint32_t kb, std::uint32_t ways)
{
    return cordVariant(std::move(label), [&](CordConfig &c) {
        c.residency = CacheGeometry{kb * 1024, kLineBytes, ways};
    });
}

TEST(CampaignFork, SpecUnionMatchesEachFiguresSubset)
{
    // bench_detection reads every detection table off one campaign
    // that carries the union of their detectors, each distinct config
    // once.  Each table's detectors alone, under their own labels,
    // must score exactly as they do inside the union; "CORD" and
    // "32KB" are the union's CORD-D16.
    const auto oneEntry = [](CordConfig &c) { c.entriesPerLine = 1; };
    const auto noFilters = [](CordConfig &c) { c.checkFilterBits = false; };
    const auto noMemTs = [](CordConfig &c) { c.memTimestamps = false; };
    const auto noMigration = [](CordConfig &c) {
        c.migrationIncrement = false;
    };
    const auto inf = [](CordConfig &c) { c.infiniteResidency = true; };
    const std::vector<DetectorSpec> all = {
        cordSpec(1), cordSpec(2), cordSpec(4), cordSpec(8), cordSpec(16),
        cordSpec(32), cordSpec(64), cordSpec(128), cordSpec(256),
        vcInfCacheSpec(), vcL2CacheSpec(), vcL1CacheSpec(),
        cordVariant("1-entry/line", oneEntry),
        cordVariant("no-filters", noFilters),
        cordVariant("no-memTs", noMemTs),
        cordVariant("no-migration", noMigration),
        cordCapacity("4KB", 4, 2), cordCapacity("8KB", 8, 2),
        cordCapacity("16KB", 16, 4), cordCapacity("64KB", 64, 8),
        cordVariant("inf", inf)};
    const std::vector<std::vector<DetectorSpec>> subsets = {
        {},
        {cordSpec(16, "CORD"), vcL2CacheSpec()},
        {vcInfCacheSpec(), vcL2CacheSpec(), vcL1CacheSpec()},
        {cordSpec(1), cordSpec(4), cordSpec(16), cordSpec(256),
         vcL2CacheSpec()},
        // The ablation, capacity and D-sweep tables' old spec lists.
        {cordSpecWith(CordConfig{}, "CORD"),
         cordVariant("1-entry/line", oneEntry),
         cordVariant("no-filters", noFilters),
         cordVariant("no-memTs", noMemTs),
         cordVariant("no-migration", noMigration)},
        {cordCapacity("4KB", 4, 2), cordCapacity("8KB", 8, 2),
         cordCapacity("16KB", 16, 4), cordCapacity("32KB", 32, 4),
         cordCapacity("64KB", 64, 8), cordVariant("inf", inf)},
        {cordSpec(1), cordSpec(2), cordSpec(4), cordSpec(8), cordSpec(16),
         cordSpec(32), cordSpec(64), cordSpec(128)}};
    for (const char *workload : {"fft", "barnes"}) {
        for (const bool forked : {true, false}) {
            SCOPED_TRACE(std::string(workload) +
                         (forked ? " forked" : " fresh"));
            CampaignConfig cfg = campaignOf(workload, 8, 2);
            if (!forked)
                cfg = fresh(cfg);
            const CampaignResult u = runCampaign(cfg, all);
            EXPECT_GT(u.manifested, 0u);
            for (const auto &specs : subsets) {
                const CampaignResult s = runCampaign(cfg, specs);
                expectSameIdealFields(s, u);
                EXPECT_EQ(s.problems.size(), specs.size());
                EXPECT_EQ(s.rawRaces.size(), specs.size());
                for (const DetectorSpec &spec : specs) {
                    const std::string l =
                        spec.label == "CORD" || spec.label == "32KB"
                            ? "CORD-D16"
                            : spec.label;
                    SCOPED_TRACE(spec.label);
                    EXPECT_EQ(s.problems.at(spec.label), u.problems.at(l));
                    EXPECT_EQ(s.rawRaces.at(spec.label), u.rawRaces.at(l));
                }
            }
        }
    }
}

/** Run @p cfg with a heartbeat attached; @p lines gets the stream. */
CampaignResult
runWithHeartbeat(CampaignConfig cfg, std::vector<JsonValue> &lines)
{
    const std::string hb = testing::TempDir() + "campaign_fork_hb.jsonl";
    CampaignResult r;
    {
        FlightRecorder flight(hb);
        cfg.flight = &flight;
        r = runCampaign(cfg, campaignSpecs());
    }
    lines.clear();
    std::FILE *f = std::fopen(hb.c_str(), "rb");
    EXPECT_NE(f, nullptr) << hb;
    if (!f)
        return r;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, f)) {
        auto v = JsonValue::parse(buf);
        EXPECT_TRUE(v) << buf;
        if (v)
            lines.push_back(std::move(*v));
    }
    std::fclose(f);
    std::remove(hb.c_str());
    return r;
}

/**
 * Children the heartbeat shows still owing a record each time a new
 * child is forked, at most.  Consecutive run_started lines are one
 * child (the injections that picked the same instance); its
 * run_finished lines, written as its record arrives, close it.
 */
std::size_t
maxChildrenRunningAtFork(const std::vector<JsonValue> &lines)
{
    std::map<double, int> childOf;   // run -> child
    std::map<int, int> unfinished;   // child -> its open runs
    int child = -1;
    bool prevStarted = false;
    std::size_t most = 0;
    for (const JsonValue &l : lines) {
        const std::string ev = l.str("event");
        const double run = l.num("run");
        if (ev == "run_started") {
            if (!prevStarted) {
                most = std::max(most, unfinished.size());
                ++child;
            }
            childOf[run] = child;
            ++unfinished[child];
        } else if (ev == "run_finished") {
            const int c = childOf.at(run);
            if (--unfinished[c] == 0)
                unfinished.erase(c);
        }
        prevStarted = ev == "run_started";
    }
    return most;
}

TEST(CampaignFork, DuplicatePicksShareOneChild)
{
    // rcureg issues 20 removable instances at scale 1: 30 injections
    // must pick some instance twice.
    CampaignConfig cfg = campaignOf("rcureg", 30, 2);
    cfg.params.loadPercent = 100;
    std::vector<JsonValue> lines;
    const CampaignResult forked = runWithHeartbeat(cfg, lines);
    EXPECT_TRUE(noChildren());
    ASSERT_EQ(forked.totalInstances, 20u);
    expectSameResult(forked, runCampaign(fresh(cfg), campaignSpecs()));

    ASSERT_FALSE(lines.empty());
    unsigned started = 0, finished = 0;
    for (const JsonValue &l : lines) {
        started += l.str("event") == "run_started";
        finished += l.str("event") == "run_finished";
    }
    EXPECT_EQ(started, 30u);
    EXPECT_EQ(finished, 30u);
    const JsonValue &end = lines.back();
    ASSERT_EQ(end.str("event"), "campaign_end");
    EXPECT_GE(end.num("forks"), 1.0);
    EXPECT_LE(end.num("forks"), 20.0);
    EXPECT_GT(end.num("trunkSeconds"), 0.0);
    EXPECT_GT(end.num("childPeakRssMb"), 0.0);
}

TEST(CampaignFork, JobsCountTheTrunk)
{
    // --jobs J: the trunk plus at most J - 1 children owing a record
    // simulate at once, so at jobs 1 the trunk waits for each record
    // before it goes on.  Children whose record is in may still be
    // exiting, but every one is reaped before runCampaign returns.
    for (const unsigned jobs : {1u, 3u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        std::vector<JsonValue> lines;
        runWithHeartbeat(campaignOf("fft", 12, jobs), lines);
        EXPECT_LE(maxChildrenRunningAtFork(lines), jobs - 1);
        EXPECT_TRUE(noChildren());
    }
}

/** How a ChildFaultDetector misbehaves. */
enum class Fault
{
    Abort, //!< crash (SIGABRT)
    Throw, //!< throw std::runtime_error out of the simulation
    Exit,  //!< end the process with status 0 before any record
};

/**
 * Test-only detector that misbehaves only in a forked child: it
 * remembers the pid that constructed it (the trunk, or a fresh run's
 * own process) and faults on its first access in any other process.
 */
class ChildFaultDetector : public Detector
{
  public:
    explicit ChildFaultDetector(Fault fault)
        : Detector("child-fault"), fault_(fault), owner_(::getpid())
    {
    }

    void
    onAccess(const MemEvent &) override
    {
        if (::getpid() == owner_)
            return;
        switch (fault_) {
          case Fault::Abort:
            std::abort();
          case Fault::Throw:
            throw std::runtime_error("fault injected into a child");
          case Fault::Exit:
            ::_exit(0);
        }
    }

  private:
    Fault fault_;
    pid_t owner_;
};

DetectorSpec
childFaultSpec(Fault fault)
{
    return {"child-fault", [fault](const MachineConfig &, unsigned) {
                return std::make_unique<ChildFaultDetector>(fault);
            }};
}

/** An fft campaign whose first 8 injections all manifest. */
CampaignConfig
faultCampaign(unsigned injections, unsigned jobs)
{
    CampaignConfig cfg = campaignOf("fft", injections, jobs);
    cfg.seed = 119;
    return cfg;
}

/** runCampaign's exception message; "" if it returned.  Every run of
 *  @p cfg must be flagged: a child feeds its spec detectors -- here
 *  the faulting one -- only once Ideal reports a race. */
std::string
campaignFailure(const CampaignConfig &cfg, Fault fault)
{
    const CampaignResult flagged =
        runCampaign(fresh(cfg), campaignSpecs());
    EXPECT_EQ(flagged.manifested, flagged.injections)
        << "an unflagged run would never reach the fault";
    const pid_t self = ::getpid();
    try {
        runCampaign(cfg, {childFaultSpec(fault)});
    } catch (const std::runtime_error &e) {
        // A child that unwound this far would report status 99.
        if (::getpid() != self)
            ::_exit(99);
        return e.what();
    }
    return "";
}

class CampaignForkFault : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Crashing children must not leave core files behind.
        const rlimit none{0, 0};
        ::setrlimit(RLIMIT_CORE, &none);
    }
};

TEST_F(CampaignForkFault, CrashedChildFailsTheCampaign)
{
    const std::string msg =
        campaignFailure(faultCampaign(1, 1), Fault::Abort);
    EXPECT_NE(msg.find("injection 0 "), std::string::npos) << msg;
    EXPECT_NE(msg.find("killed by signal " + std::to_string(SIGABRT)),
              std::string::npos)
        << msg;
    EXPECT_TRUE(noChildren());

    // Several children in flight: still a failure, none left behind.
    const std::string many =
        campaignFailure(faultCampaign(8, 4), Fault::Abort);
    EXPECT_NE(many.find("failed in its forked child"), std::string::npos)
        << many;
    EXPECT_TRUE(noChildren());
}

TEST_F(CampaignForkFault, ExceptionInChildNeverUnwindsIntoCaller)
{
    const std::string msg =
        campaignFailure(faultCampaign(3, 1), Fault::Throw);
    EXPECT_NE(msg.find("exited with status 70"), std::string::npos)
        << msg;
    EXPECT_TRUE(noChildren());
}

TEST_F(CampaignForkFault, ShortRecordFailsTheCampaign)
{
    const std::string msg =
        campaignFailure(faultCampaign(1, 1), Fault::Exit);
    EXPECT_NE(msg.find("injection 0 "), std::string::npos) << msg;
    EXPECT_NE(msg.find("sent a record of 0 bytes"), std::string::npos)
        << msg;
    EXPECT_TRUE(noChildren());
}

TEST_F(CampaignForkFault, FreshRunsNeverFault)
{
    // The same detector is harmless where no process forks.
    EXPECT_EQ(campaignFailure(fresh(faultCampaign(3, 1)),
                              Fault::Abort),
              "");
}

} // namespace
} // namespace cord
