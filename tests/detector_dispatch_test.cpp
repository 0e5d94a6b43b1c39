/**
 * @file
 * Batched detector dispatch (cpu/simulation.h) is invisible in every
 * detector output.  An untraced run delivers the committed stream in
 * batches; a run under an active EventTracer delivers each access as
 * it commits.  Both runs of the same injected workload must give the
 * same access stream, thread ends, race reports and order-log bytes.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "cord/log_codec.h"
#include "harness/experiments.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "inject/injector.h"
#include "obs/tracer.h"

namespace cord
{
namespace
{

using EventKey = std::tuple<Tick, ThreadId, CoreId, Addr, AccessKind,
                            std::uint64_t, std::uint64_t>;
using RaceKey =
    std::tuple<Tick, Addr, ThreadId, AccessKind, Ts64, Ts64>;

/** Everything a detector produced, in comparable form. */
struct ReportKey
{
    std::uint64_t pairs = 0;
    std::vector<Addr> words;
    std::vector<RaceKey> samples;

    explicit ReportKey(const RaceReport &r)
        : pairs(r.pairs()), words(r.words().begin(), r.words().end())
    {
        for (const RaceRecord &s : r.samples())
            samples.emplace_back(s.tick, s.addr, s.accessor, s.kind,
                                 s.accessorClock, s.conflictTs);
    }

    bool
    operator==(const ReportKey &o) const
    {
        return pairs == o.pairs && words == o.words &&
               samples == o.samples;
    }
};

struct RunKey
{
    RunOutcome outcome;
    std::vector<EventKey> events;
    std::vector<std::pair<ThreadId, std::uint64_t>> threadEnds;
    std::vector<ReportKey> reports; //!< Ideal, CORD, VC
    std::vector<std::uint8_t> orderLog;
};

/** A workload and an injection that manifests as races in it. */
struct Case
{
    const char *workload;
    unsigned scale;
    unsigned loadPercent;
    InjectionPick pick;
};

/** One injected run with the campaign's detector set: Ideal,
 *  CORD-D16 and VC-L2Cache, plus a TraceRecorder. */
RunKey
runOnce(const Case &c, bool traced)
{
    RunSetup s;
    s.workload = c.workload;
    s.params.numThreads = 4;
    s.params.scale = c.scale;
    s.params.loadPercent = c.loadPercent;
    s.params.seed = 7;
    RemoveOneInstance filter(c.pick);
    s.filter = &filter;
    s.maxTicks = 200000000;

    TraceRecorder rec;
    IdealDetector ideal(s.params.numThreads);
    const auto cord = cordSpec(16).make(s.machine, s.params.numThreads);
    const auto vc = vcL2CacheSpec().make(s.machine, s.params.numThreads);
    s.detectors = {&rec, &ideal, cord.get(), vc.get()};

    EventTracer tracer;
    std::optional<TracerScope> scope;
    if (traced)
        scope.emplace(tracer);

    RunKey k;
    k.outcome = runWorkload(s);
    EXPECT_TRUE(filter.fired());
    for (const MemEvent &ev : rec.events())
        k.events.emplace_back(ev.tick, ev.tid, ev.core, ev.addr, ev.kind,
                              ev.instrCount, ev.value);
    k.threadEnds = rec.threadEnds();
    k.reports = {ReportKey(ideal.races()), ReportKey(cord->races()),
                 ReportKey(vc->races())};
    k.orderLog = encodeOrderLog(
        static_cast<const CordDetector &>(*cord).orderLog());
    return k;
}

class BatchedDispatch : public ::testing::TestWithParam<Case>
{
};

TEST_P(BatchedDispatch, MatchesPerAccessDeliveryUnderTheTracer)
{
    const RunKey batched = runOnce(GetParam(), /*traced=*/false);
    const RunKey perAccess = runOnce(GetParam(), /*traced=*/true);

    ASSERT_TRUE(batched.outcome.completed);
    EXPECT_GT(batched.events.size(), 2000u) << "spans many batches";
    EXPECT_EQ(batched.events.size(), batched.outcome.accesses);
    EXPECT_GT(batched.reports[0].pairs, 0u)
        << "the injection must manifest, or the reports compare nothing";

    EXPECT_EQ(batched.outcome.ticks, perAccess.outcome.ticks);
    EXPECT_EQ(batched.outcome.events, perAccess.outcome.events);
    EXPECT_TRUE(batched.events == perAccess.events)
        << "committed access streams differ";
    EXPECT_EQ(batched.threadEnds, perAccess.threadEnds);
    EXPECT_TRUE(batched.reports[0] == perAccess.reports[0]) << "Ideal";
    EXPECT_TRUE(batched.reports[1] == perAccess.reports[1]) << "CORD";
    EXPECT_TRUE(batched.reports[2] == perAccess.reports[2]) << "VC";
    EXPECT_FALSE(batched.orderLog.empty());
    EXPECT_EQ(batched.orderLog, perAccess.orderLog);
}

std::string
caseName(const ::testing::TestParamInfo<Case> &p)
{
    std::string n = p.param.workload;
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BatchedDispatch,
    ::testing::Values(Case{"water-n2", 1, 100, {1, 2}},
                      Case{"kvstore", 4, 200, {0, 12}}),
    caseName);

} // namespace
} // namespace cord
