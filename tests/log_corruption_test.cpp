/**
 * @file
 * Seeded-corruption sweep: every corruption the log corruptor can
 * inflict on a real recorded order log must be caught by cordlint's
 * well-formedness checks.  Detection is required to be 100% -- one
 * silently accepted corruption is a test failure, not a statistic.
 */

#include <gtest/gtest.h>

#include "analysis/lint.h"
#include "cord/cord_detector.h"
#include "cord/log_codec.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "inject/log_corruptor.h"
#include "sim/rng.h"

namespace cord
{
namespace
{

struct Artifacts
{
    std::vector<std::uint8_t> wireLog;
    DecodedTrace trace;
};

/** One fft recording shared by every sweep below. */
const Artifacts &
fftArtifacts()
{
    static const Artifacts art = [] {
        CordConfig cc;
        CordDetector cord(cc);
        TraceRecorder trace;
        RunSetup setup;
        setup.workload = "fft";
        setup.params.seed = 5;
        setup.detectors = {&cord, &trace};
        const RunOutcome out = runWorkload(setup);
        cord_assert(out.completed, "fft recording did not complete");
        Artifacts a;
        a.wireLog = encodeOrderLog(cord.orderLog());
        a.trace = trace.trace();
        return a;
    }();
    return art;
}

std::size_t
lintErrors(const std::vector<std::uint8_t> &wire,
           const DecodedTrace *trace)
{
    LintInput in;
    in.wireLog = &wire;
    in.trace = trace;
    in.audit = false;
    return runLint(in).errors();
}

class CorruptionSweep
    : public ::testing::TestWithParam<LogCorruptionKind>
{
};

TEST_P(CorruptionSweep, EveryAppliedCorruptionIsDetected)
{
    const Artifacts &art = fftArtifacts();
    ASSERT_GE(art.wireLog.size(), 4 * OrderLog::kEntryWireBytes);

    const LogCorruptionKind kind = GetParam();
    unsigned applied = 0;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        std::vector<std::uint8_t> bytes = art.wireLog;
        Rng rng(seed * 1009 + static_cast<std::uint64_t>(kind));
        const LogCorruptionOutcome out =
            corruptWireLog(bytes, kind, rng);
        if (!out.applied)
            continue;
        ++applied;
        EXPECT_FALSE(out.description.empty());
        EXPECT_GT(lintErrors(bytes, &art.trace), 0u)
            << logCorruptionName(kind) << " seed " << seed
            << " evaded detection: " << out.description;
    }
    // Every kind must find targets in a real fft log; a sweep that
    // never applies proves nothing.
    EXPECT_EQ(applied, 25u) << logCorruptionName(kind);
}

TEST_P(CorruptionSweep, DetectedEvenWithoutTrace)
{
    // All corruption kinds except whole-entry effects are detectable
    // from the log alone; the corruptor always leaves a log-local
    // violation (partial-entry framing, window jump, or zero-instr
    // entry), so the trace must not be load-bearing.
    const Artifacts &art = fftArtifacts();
    const LogCorruptionKind kind = GetParam();
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        std::vector<std::uint8_t> bytes = art.wireLog;
        Rng rng(seed * 7919 + static_cast<std::uint64_t>(kind));
        if (!corruptWireLog(bytes, kind, rng).applied)
            continue;
        EXPECT_GT(lintErrors(bytes, nullptr), 0u)
            << logCorruptionName(kind) << " seed " << seed;
    }
}

TEST(CorruptionSweep, CleanLogStaysClean)
{
    const Artifacts &art = fftArtifacts();
    EXPECT_EQ(lintErrors(art.wireLog, &art.trace), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CorruptionSweep,
    ::testing::ValuesIn(kAllLogCorruptions),
    [](const ::testing::TestParamInfo<LogCorruptionKind> &info) {
        std::string name = logCorruptionName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace cord
