/**
 * @file
 * Tests for the offline race-prediction tier (src/analysis): the
 * superset property of the weak-order predictor over happens-before,
 * field-for-field equivalence of the epoch-compressed analyzer,
 * witness verification, deterministic sampling, the corrupt-log gate,
 * and a cross-validation smoke run against schedule exploration.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "analysis/epoch_analyzer.h"
#include "analysis/findings.h"
#include "analysis/hb_analyzer.h"
#include "analysis/lint.h"
#include "analysis/predict.h"
#include "analysis/xval.h"
#include "cord/cord_detector.h"
#include "cord/log_codec.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "inject/injector.h"
#include "inject/log_corruptor.h"
#include "sim/rng.h"
#include "workloads/workload.h"

namespace cord
{
namespace
{

/** Every field of one race, for set-based superset comparisons. */
using RaceKey = std::tuple<Tick, Addr, ThreadId, AccessKind, ThreadId,
                           Tick, bool>;

RaceKey
keyOf(const HbRace &r)
{
    return std::make_tuple(r.tick, r.word, r.accessor, r.kind, r.other,
                           r.otherTick, r.otherWasWrite);
}

/** Record one run: order log + trace (optionally with an injection). */
struct Recording
{
    std::vector<std::uint8_t> wireLog;
    DecodedTrace trace;
    bool completed = false;
};

Recording
record(const std::string &workload, std::uint64_t seed, unsigned scale,
       const InjectionPick *pick = nullptr, bool knownRaces = false)
{
    CordConfig cc;
    CordDetector cord(cc);
    TraceRecorder trace;

    RunSetup setup;
    setup.workload = workload;
    setup.params.seed = seed;
    setup.params.scale = scale;
    setup.params.includeKnownRaces = knownRaces;
    setup.detectors = {&cord, &trace};
    RemoveOneInstance filter(pick ? *pick : InjectionPick{});
    if (pick) {
        setup.filter = &filter;
        setup.maxTicks = 500000000ULL;
    }
    const RunOutcome out = runWorkload(setup);

    Recording rec;
    rec.completed = out.completed;
    if (!out.completed)
        return rec;
    rec.wireLog = encodeOrderLog(cord.orderLog());
    rec.trace = trace.trace();
    return rec;
}

/** A racy cholesky recording (sync removal manifests races). */
const Recording &
racyRecording()
{
    static const Recording rec = [] {
        const InjectionPick pick{1, 6};
        Recording r = record("cholesky", 3, 2, &pick);
        if (r.completed)
            return r;
        return Recording{};
    }();
    return rec;
}

/** A 72-thread barnes recording with its known races: past 64 threads
 *  a word's race check scans every thread instead of its sharer
 *  masks. */
Recording
manyThreadRecording()
{
    TraceRecorder trace;
    RunSetup setup;
    setup.workload = "barnes";
    setup.params.numThreads = 72;
    setup.params.scale = 1;
    setup.params.seed = 12;
    setup.params.includeKnownRaces = true;
    setup.machine.numCores = 72;
    setup.detectors = {&trace};

    Recording rec;
    rec.completed = runWorkload(setup).completed;
    rec.trace = trace.trace();
    return rec;
}

/** Hand-built trace: one sync word L, one data word X, three threads.
 *  HB orders t0's write before t2's via the accumulated sync clock of
 *  L; the W order only keeps t2's read-from edge to t1's write, so the
 *  pair is predicted but not detected. */
DecodedTrace
wBeyondHbTrace()
{
    constexpr Addr kX = 0x1000, kL = 0x2000;
    DecodedTrace t;
    auto ev = [&](Tick tick, ThreadId tid, Addr addr, AccessKind kind,
                  std::uint64_t instr) {
        MemEvent e;
        e.tick = tick;
        e.tid = tid;
        e.addr = addr;
        e.kind = kind;
        e.instrCount = instr;
        t.events.push_back(e);
    };
    ev(10, 0, kX, AccessKind::DataWrite, 1);
    ev(20, 0, kL, AccessKind::SyncWrite, 2);
    ev(30, 1, kL, AccessKind::SyncWrite, 1);
    ev(40, 2, kL, AccessKind::SyncRead, 1);
    ev(50, 2, kX, AccessKind::DataWrite, 2);
    t.threadEnds = {{0, 2}, {1, 1}, {2, 2}};
    return t;
}

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

/** Every field a prediction exposes: races, racy words, witnesses and
 *  the sampling accounting. */
std::uint64_t
digestOf(const PredictiveAnalysis &p)
{
    Digest d;
    d.add(p.numThreads());
    d.add(p.races().size());
    for (const PredictedRace &r : p.races()) {
        d.add(r.tick);
        d.add(r.word);
        d.add(r.accessor);
        d.add(static_cast<std::uint64_t>(r.kind));
        d.add(r.other);
        d.add(r.otherTick);
        d.add(r.otherWasWrite);
    }
    d.add(p.racyWords().size());
    for (Addr w : p.racyWords())
        d.add(w);
    d.add(p.witnesses().size());
    for (const RaceWitness &w : p.witnesses()) {
        d.add(w.word);
        d.add(w.firstIndex);
        d.add(w.secondIndex);
        d.add(w.cutoffs.size());
        for (std::uint64_t c : w.cutoffs)
            d.add(c);
    }
    d.add(p.accessesAnalyzed());
    d.add(p.accessesSkipped());
    return d.h;
}

TEST(PredictGolden, RacesAndWitnessesAreStable)
{
    // Pins the predictor's complete output on a racy injection, the
    // 72-thread no-mask path, the hand-built W-beyond-HB trace and a
    // barnes run with its known races (3,420 predicted pairs), each
    // unsampled and at sample rate 8.
    struct Input
    {
        const char *name;
        DecodedTrace trace;
    };
    std::vector<Input> inputs;
    inputs.push_back({"cholesky-inject", racyRecording().trace});
    const Recording many = manyThreadRecording();
    ASSERT_TRUE(many.completed);
    inputs.push_back({"barnes-72", many.trace});
    inputs.push_back({"w-beyond-hb", wBeyondHbTrace()});
    const Recording barnes = record("barnes", 1, 2, nullptr, true);
    ASSERT_TRUE(barnes.completed);
    inputs.push_back({"barnes-known", barnes.trace});
    ASSERT_FALSE(inputs[0].trace.events.empty());

    struct Expected
    {
        const char *name;
        unsigned sampleRate;
        std::uint64_t digest;
    };
    const Expected expected[] = {
        {"cholesky-inject", 1, 0xbfe3fc7074ae945cULL},
        {"cholesky-inject", 8, 0x818c5bfe1591eb89ULL},
        {"barnes-72", 1, 0x4913376f5bd6d8abULL},
        {"barnes-72", 8, 0x5b4d27aeec1e51edULL},
        {"w-beyond-hb", 1, 0xb8681a482d0e80e8ULL},
        {"w-beyond-hb", 8, 0xaba1b0e35b21bb64ULL},
        {"barnes-known", 1, 0x1b3d23d249a137c4ULL},
        {"barnes-known", 8, 0xfa0775eb266fc70fULL},
    };
    std::size_t k = 0;
    for (const Input &in : inputs) {
        for (unsigned rate : {1u, 8u}) {
            PredictOptions opt;
            opt.sampleRate = rate;
            const PredictiveAnalysis p =
                PredictiveAnalysis::analyze(in.trace, opt);
            if (std::string(in.name) == "barnes-known" && rate == 1) {
                EXPECT_EQ(p.pairs(), 3420u);
            }
            const Expected &e = expected[k++];
            ASSERT_EQ(std::string(e.name), in.name);
            ASSERT_EQ(e.sampleRate, rate);
            EXPECT_EQ(digestOf(p), e.digest)
                << in.name << " at sample rate " << rate << ": 0x"
                << std::hex << digestOf(p);
        }
    }
}

TEST(PredictSuperset, CoversHbOnEveryWorkload)
{
    // The tentpole property: on every seeded workload the predicted
    // race set contains every happens-before race, field for field.
    for (const std::string &app : workloadNames()) {
        const Recording rec = record(app, 11, 4);
        ASSERT_TRUE(rec.completed) << app;

        const HbAnalysis hb = HbAnalysis::analyze(rec.trace);
        const PredictiveAnalysis pred =
            PredictiveAnalysis::analyze(rec.trace);

        std::set<RaceKey> predicted;
        for (const PredictedRace &r : pred.races())
            predicted.insert(keyOf(r));
        for (const HbRace &r : hb.races())
            EXPECT_TRUE(predicted.count(keyOf(r)))
                << app << ": HB race on word " << std::hex << r.word
                << " not predicted";
        for (Addr w : hb.racyWords())
            EXPECT_TRUE(pred.racyWords().count(w)) << app;
        EXPECT_GE(pred.pairs(), hb.pairs()) << app;
    }
}

TEST(PredictSuperset, RacyInjectionStaysCovered)
{
    const Recording &rec = racyRecording();
    ASSERT_TRUE(rec.completed);

    const HbAnalysis hb = HbAnalysis::analyze(rec.trace);
    ASSERT_GT(hb.pairs(), 0u);

    const PredictiveAnalysis pred =
        PredictiveAnalysis::analyze(rec.trace);
    std::set<RaceKey> predicted;
    for (const PredictedRace &r : pred.races())
        predicted.insert(keyOf(r));
    for (const HbRace &r : hb.races())
        EXPECT_TRUE(predicted.count(keyOf(r)));
}

TEST(PredictSuperset, WeakOrderSeesBeyondHappensBefore)
{
    const DecodedTrace t = wBeyondHbTrace();

    const HbAnalysis hb = HbAnalysis::analyze(t, 3);
    EXPECT_EQ(hb.pairs(), 0u);

    const PredictiveAnalysis pred = PredictiveAnalysis::analyze(t);
    ASSERT_EQ(pred.pairs(), 1u);
    const PredictedRace &r = pred.races()[0];
    EXPECT_EQ(r.word, 0x1000u);
    EXPECT_EQ(r.accessor, 2u);
    EXPECT_EQ(r.other, 0u);
    EXPECT_TRUE(r.otherWasWrite);

    // The race comes with a verifiable reordering witness.
    ASSERT_EQ(pred.witnesses().size(), 1u);
    EXPECT_TRUE(verifyWitness(t, pred.witnesses()[0]));
}

TEST(EpochCompression, FieldIdenticalToFullVectors)
{
    std::vector<Recording> recs;
    for (const char *app : {"fft", "radix", "ocean"})
        recs.push_back(record(app, 11, 4));
    recs.push_back(racyRecording());
    recs.push_back(manyThreadRecording());

    for (const Recording &rec : recs) {
        ASSERT_TRUE(rec.completed);
        const HbAnalysis full = HbAnalysis::analyze(rec.trace);
        const HbAnalysis epoch = analyzeEpochCompressed(rec.trace);

        EXPECT_EQ(epoch.numThreads(), full.numThreads());
        ASSERT_EQ(epoch.pairs(), full.pairs());
        for (std::size_t i = 0; i < full.races().size(); ++i)
            EXPECT_EQ(keyOf(epoch.races()[i]), keyOf(full.races()[i]));
        EXPECT_EQ(epoch.racyWords(), full.racyWords());
        for (const HbRace &r : full.races())
            EXPECT_TRUE(epoch.racyEndpoint(r.tick, r.word, r.accessor));
    }
}

TEST(EpochCompression, RefusesThreadsBeyondDeclaredCount)
{
    // A trace using thread IDs past its declared count is refused, not
    // analyzed: as a file that ends one thread of three, and against a
    // declared count of 1.
    DecodedTrace oneEnd = wBeyondHbTrace();
    oneEnd.threadEnds.resize(1);
    DecodedTrace decoded;
    std::string err;
    EXPECT_FALSE(decodeTrace(encodeTrace(oneEnd), decoded, err));
    EXPECT_NE(err.find("event 2 names thread 1 of a 1-thread trace"),
              std::string::npos)
        << err;

    const DecodedTrace t = wBeyondHbTrace();
    LintInput in;
    in.trace = &t;
    in.numThreads = 1;
    const LintReport report = runLint(in);
    EXPECT_EQ(report.errors(), 1u) << report.renderText();
    EXPECT_NE(report.renderText().find(
                  "[error] trace.threads: 1 threads declared, but the "
                  "trace ends 3"),
              std::string::npos)
        << report.renderText();
}

TEST(PredictWitness, AllMaterializedWitnessesVerify)
{
    const Recording &rec = racyRecording();
    ASSERT_TRUE(rec.completed);

    const PredictiveAnalysis pred =
        PredictiveAnalysis::analyze(rec.trace);
    ASSERT_GT(pred.pairs(), 0u);
    ASSERT_FALSE(pred.witnesses().empty());
    for (const RaceWitness &w : pred.witnesses()) {
        EXPECT_TRUE(pred.racyWords().count(w.word));
        EXPECT_TRUE(verifyWitness(rec.trace, w));
    }

    // A tampered witness must not verify: point the racing access one
    // event early so the replayed next-step check fails.
    RaceWitness bad = pred.witnesses()[0];
    const ThreadId tid = rec.trace.events[bad.secondIndex].tid;
    ASSERT_GT(bad.cutoffs[tid], 0u);
    bad.cutoffs[tid] -= 1;
    EXPECT_FALSE(verifyWitness(rec.trace, bad));
}

TEST(PredictSampling, DeterministicAndAccounted)
{
    const Recording rec = record("fft", 11, 4);
    ASSERT_TRUE(rec.completed);

    PredictOptions all;
    const PredictiveAnalysis full =
        PredictiveAnalysis::analyze(rec.trace, all);
    EXPECT_EQ(full.accessesSkipped(), 0u);

    PredictOptions sampled;
    sampled.sampleRate = 8;
    const PredictiveAnalysis a =
        PredictiveAnalysis::analyze(rec.trace, sampled);
    const PredictiveAnalysis b =
        PredictiveAnalysis::analyze(rec.trace, sampled);
    EXPECT_GT(a.accessesSkipped(), 0u);
    EXPECT_LT(a.accessesAnalyzed(), full.accessesAnalyzed());
    EXPECT_EQ(a.accessesAnalyzed(), b.accessesAnalyzed());
    EXPECT_EQ(a.accessesSkipped(), b.accessesSkipped());
    EXPECT_EQ(a.pairs(), b.pairs());

    // The filter is a pure address hash.
    for (Addr w : {Addr{0x40}, Addr{0x1234560}, Addr{0xdeadbee0}}) {
        EXPECT_EQ(predictSampled(w, 8), predictSampled(w, 8));
        EXPECT_TRUE(predictSampled(w, 1));
        EXPECT_TRUE(predictSampled(w, 0));
    }
}

TEST(PredictGate, EveryCorruptionKindRejected)
{
    const Recording rec = record("fft", 11, 2);
    ASSERT_TRUE(rec.completed);
    ASSERT_FALSE(rec.wireLog.empty());

    {
        LintReport report;
        EXPECT_TRUE(predictInputsValid(rec.wireLog, rec.trace, 1, report));
        EXPECT_EQ(report.errors(), 0u);
    }

    for (LogCorruptionKind kind : kAllLogCorruptions) {
        SCOPED_TRACE(logCorruptionName(kind));
        bool rejectedOnce = false;
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            std::vector<std::uint8_t> bytes = rec.wireLog;
            Rng rng(seed * 977);
            const LogCorruptionOutcome out =
                corruptWireLog(bytes, kind, rng);
            if (!out.applied)
                continue;
            LintReport report;
            const bool ok =
                predictInputsValid(bytes, rec.trace, 1, report);
            EXPECT_FALSE(ok) << out.description;
            EXPECT_GT(report.errors(), 0u) << out.description;
            rejectedOnce = true;
        }
        EXPECT_TRUE(rejectedOnce);
    }
}

TEST(PredictXval, SupersetHoldsOnRacyCholesky)
{
    XvalSpec spec;
    spec.explore.workload = "cholesky";
    spec.explore.params.numThreads = 4;
    spec.explore.params.scale = 2;
    spec.explore.params.seed = 3;
    spec.explore.schedules = 8;
    spec.explore.jobs = 2;
    spec.explore.haveInjection = true;
    spec.explore.pick = InjectionPick{1, 6};

    const XvalResult r = runXval(spec);
    EXPECT_EQ(r.schedules, 8u);
    EXPECT_TRUE(r.baselineCompleted);
    EXPECT_GT(r.completed, 0u);
    EXPECT_GT(r.predictedPairs, 0u);
    EXPECT_FALSE(r.manifestedWords.empty());
    EXPECT_TRUE(r.superset())
        << r.missedWords.size() << " manifested words missed";

    LintReport report;
    reportXval(r, report);
    EXPECT_EQ(report.errors(), 0u);
    EXPECT_EQ(report.metrics().at("xval.missedWords"), 0.0);
}

TEST(PredictXval, EscapesAreClassifiedOnVolrend)
{
    // volrend's known race (the unlocked opacity-histogram update) is
    // lock-protected in the baseline schedule with every conflicting
    // pair ordered by the observed acquisition order; a different
    // schedule flips that order and races.  This is the documented
    // single-trace limit of reads-from prediction, so the word must
    // escape -- and the escape must be *classified*, with a witness,
    // as ordered-in-baseline.
    XvalSpec spec;
    spec.explore.workload = "volrend";
    spec.explore.params.numThreads = 4;
    spec.explore.params.scale = 1;
    spec.explore.params.seed = 1;
    spec.explore.params.includeKnownRaces = true;
    spec.explore.schedules = 8;
    spec.explore.jobs = 2;

    const XvalResult r = runXval(spec);
    ASSERT_TRUE(r.baselineCompleted);
    ASSERT_FALSE(r.superset()) << "expected the volrend escape";
    ASSERT_EQ(r.escapes.size(), r.missedWords.size())
        << "every miss must be classified";
    for (std::size_t i = 0; i < r.escapes.size(); ++i) {
        const XvalEscape &e = r.escapes[i];
        EXPECT_EQ(e.word, r.missedWords[i]);
        EXPECT_EQ(e.kind, EscapeKind::OrderedInBaseline);
        EXPECT_GE(e.baselineThreads, 2u)
            << "ordered-in-baseline requires a cross-thread witness";
        EXPECT_GT(e.baselineWrites, 0u);
        EXPECT_GE(e.baselineAccesses, e.baselineWrites);
        EXPECT_GT(e.firstSchedule, 0u)
            << "the baseline itself cannot manifest an escaped word";
    }

    // Default report: structured warnings, no errors (the limit is
    // documented, not a finding against the predictor).
    LintReport lenient;
    reportXval(r, lenient);
    EXPECT_EQ(lenient.errors(), 0u) << lenient.renderText();
    EXPECT_GT(lenient.warnings(), 0u);
    EXPECT_EQ(lenient.metrics().at("xval.escape.ordered"),
              static_cast<double>(r.escapes.size()));
    EXPECT_NE(lenient.renderText().find("ordered-in-baseline"),
              std::string::npos);

    // --fail-on-escape promotes the same findings to errors.
    LintReport strict;
    reportXval(r, strict, /*failOnEscape=*/true);
    EXPECT_GT(strict.errors(), 0u);
}

} // namespace
} // namespace cord
