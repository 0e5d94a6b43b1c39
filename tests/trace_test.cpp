/**
 * @file
 * Unit tests for the access-trace tooling (harness/trace.h): binary
 * round trip, file I/O, offline detector equivalence (a detector
 * driven from a trace must report exactly what it reported online),
 * and cordlint on mutated traces and order logs.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cord/cord_detector.h"
#include "cord/ideal_detector.h"
#include "cord/log_codec.h"
#include "harness/runner.h"
#include "harness/trace.h"
#include "inject/injector.h"
#include "sim/rng.h"

namespace cord
{
namespace
{

TEST(Trace, EncodeDecodeRoundTrip)
{
    TraceRecorder rec;
    MemEvent ev;
    ev.tick = 5;
    ev.tid = 2;
    ev.core = 1;
    ev.addr = 0x1234;
    ev.kind = AccessKind::SyncWrite;
    ev.instrCount = 99;
    ev.value = 0xdeadbeef;
    rec.onAccess(ev);
    ev.tick = 6;
    ev.kind = AccessKind::DataRead;
    rec.onAccess(ev);
    rec.onThreadEnd(2, 100);

    const DecodedTrace dec = decodeTrace(encodeTrace(rec));
    ASSERT_EQ(dec.events.size(), 2u);
    EXPECT_EQ(dec.events[0].tick, 5u);
    EXPECT_EQ(dec.events[0].tid, 2);
    EXPECT_EQ(dec.events[0].core, 1);
    EXPECT_EQ(dec.events[0].addr, 0x1234u);
    EXPECT_EQ(dec.events[0].kind, AccessKind::SyncWrite);
    EXPECT_EQ(dec.events[0].instrCount, 99u);
    EXPECT_EQ(dec.events[0].value, 0xdeadbeefu);
    EXPECT_EQ(dec.events[1].kind, AccessKind::DataRead);
    ASSERT_EQ(dec.threadEnds.size(), 1u);
    EXPECT_EQ(dec.threadEnds[0].first, 2);
    EXPECT_EQ(dec.threadEnds[0].second, 100u);
}

TEST(Trace, CorruptBufferIsFatal)
{
    // A valid one-event trace with no thread ends: 24-byte header plus
    // one 40-byte record.
    TraceRecorder rec;
    rec.onAccess(MemEvent{});
    const std::vector<std::uint8_t> good = encodeTrace(rec);
    ASSERT_EQ(good.size(), 64u);

    std::vector<std::uint8_t> hugeCount(good.begin(), good.begin() + 24);
    const std::uint64_t claimed = std::uint64_t{1} << 60;
    std::memcpy(hugeCount.data() + 8, &claimed, sizeof claimed);
    std::vector<std::uint8_t> trailing = good;
    trailing.push_back(0);
    // The record's thread and core IDs sit at bytes 32-35 of the
    // record; a thread end's ID is its first two bytes.
    std::vector<std::uint8_t> badTid = good;
    badTid[24 + 33] = 0x04; // thread 1024
    std::vector<std::uint8_t> badCore = good;
    badCore[24 + 35] = 0xff; // core 65280
    rec.onThreadEnd(0, 1);
    std::vector<std::uint8_t> badEnd = encodeTrace(rec);
    badEnd[64 + 1] = 0x80; // thread 32768

    const struct
    {
        const char *name;
        std::vector<std::uint8_t> bytes;
        const char *message;
    } cases[] = {
        {"bad magic", std::vector<std::uint8_t>(24, 0xab), "bad magic"},
        {"huge count", hugeCount, "claims 1152921504606846976 events"},
        {"truncated record",
         std::vector<std::uint8_t>(good.begin(), good.end() - 1),
         "truncated trace"},
        {"2-byte file", std::vector<std::uint8_t>(good.begin(),
                                                  good.begin() + 2),
         "truncated trace"},
        {"one trailing byte", trailing, "1 trailing byte"},
        {"thread ID", badTid, "names thread 1024"},
        {"core ID", badCore, "on core 65280"},
        {"thread-end ID", badEnd, "thread end 0 names thread 32768"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_EXIT(decodeTrace(c.bytes), ::testing::ExitedWithCode(1),
                    c.message);
    }
    EXPECT_EXIT(loadTrace(::testing::TempDir()),
                ::testing::ExitedWithCode(1), "cannot read");
}

TEST(Trace, OfflineDetectionMatchesOnline)
{
    // Run an injected workload online with CORD + Ideal + recorder,
    // then re-drive fresh detector instances from the trace: the race
    // counts and the order log must match exactly.
    RemoveOneInstance filter({1, 3});
    TraceRecorder trace;
    CordConfig cc;
    CordDetector onlineCord(cc);
    IdealDetector onlineIdeal(4);

    RunSetup run;
    run.workload = "cholesky";
    run.params.seed = 23;
    run.filter = &filter;
    run.maxTicks = 500000000ULL;
    run.detectors = {&trace, &onlineCord, &onlineIdeal};
    const RunOutcome out = runWorkload(run);
    ASSERT_TRUE(out.completed);

    const DecodedTrace dec = decodeTrace(encodeTrace(trace));
    EXPECT_EQ(dec.events.size(), out.accesses);

    CordDetector offlineCord(cc);
    IdealDetector offlineIdeal(4);
    runDetectorOnTrace(dec, offlineCord);
    runDetectorOnTrace(dec, offlineIdeal);

    EXPECT_EQ(offlineCord.races().pairs(), onlineCord.races().pairs());
    EXPECT_EQ(offlineIdeal.races().pairs(),
              onlineIdeal.races().pairs());
    EXPECT_EQ(offlineCord.orderLog().size(),
              onlineCord.orderLog().size());
    for (std::size_t i = 0; i < offlineCord.orderLog().size(); ++i) {
        EXPECT_EQ(offlineCord.orderLog().entries()[i].clock,
                  onlineCord.orderLog().entries()[i].clock);
    }
}

TEST(Trace, FileRoundTrip)
{
    TraceRecorder rec;
    MemEvent ev;
    ev.addr = 0x42;
    ev.kind = AccessKind::DataWrite;
    for (int i = 0; i < 100; ++i) {
        ev.tick = i;
        ev.instrCount = i + 1;
        rec.onAccess(ev);
    }
    const std::string path = ::testing::TempDir() + "/cord_trace.bin";
    saveTrace(rec, path);
    const DecodedTrace dec = loadTrace(path);
    EXPECT_EQ(dec.events.size(), 100u);
    EXPECT_EQ(dec.events[99].tick, 99u);
    std::remove(path.c_str());
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
}

/**
 * Run `cordlint --log LOG --trace TRACE` in a child with its output
 * discarded, under an address-space and a CPU-time limit, so that an
 * unbounded allocation or a hang ends in a signal instead of taking
 * the host down.  Sanitizer runtimes reserve terabytes of shadow
 * address space, so sanitized builds keep only the CPU limit.
 * @return the exit code, or minus the signal that ended the child
 */
int
lintChild(const std::string &log, const std::string &trace)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int devnull = ::open("/dev/null", O_WRONLY);
        ::dup2(devnull, STDOUT_FILENO);
        ::dup2(devnull, STDERR_FILENO);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
        const rlim_t as = rlim_t{1} << 30;
        const rlimit asLimit{as, as};
        ::setrlimit(RLIMIT_AS, &asLimit);
#endif
        const rlimit cpuLimit{60, 60};
        ::setrlimit(RLIMIT_CPU, &cpuLimit);
        ::execl(CORDLINT_BIN, CORDLINT_BIN, "--log", log.c_str(),
                "--trace", trace.c_str(), static_cast<char *>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid)
        return 127;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

/**
 * Seeded, bounded mutation of cordlint's two binary inputs, the access
 * trace and the order log (which goes through checkWireLog,
 * checkLogWellFormed and checkReplayFeasible): bit flips, truncation,
 * splices and inflated counts, plus a flipped high byte of a record's
 * thread and core ID.  cordlint must end every mutant with exit 0
 * (clean), 1 (findings, or a refused input) or 2 (usage), never with a
 * signal.
 */
TEST(CordlintInputMutation, EveryMutantExitsWithAStatus)
{
    RunSetup run;
    run.workload = "fft";
    run.params.seed = 11;
    TraceRecorder trace;
    CordDetector cord(CordConfig::forMachine(run.machine, 4));
    run.detectors = {&trace, &cord};
    ASSERT_TRUE(runWorkload(run).completed);

    const std::string dir = ::testing::TempDir();
    const std::string tracePath = dir + "/cord_mutant.trace";
    const std::string logPath = dir + "/cord_mutant.ordlog";
    const std::vector<std::uint8_t> baseTrace = encodeTrace(trace);
    const std::vector<std::uint8_t> baseLog = encodeOrderLog(cord.orderLog());
    ASSERT_GT(baseTrace.size(), 24u + 40u * 8);
    ASSERT_GE(baseLog.size(), 8u * 8);
    writeBytes(tracePath, baseTrace);
    writeBytes(logPath, baseLog);
    ASSERT_EQ(lintChild(logPath, tracePath), 0) << "the unmutated pair";

    Rng rng(0xc0d17);
    const std::uint64_t inflated[] = {2, std::uint64_t{1} << 32,
                                      ~std::uint64_t{0} >> 1,
                                      ~std::uint64_t{0}};
    constexpr unsigned kMutants = 160;
    unsigned refused = 0;
    for (unsigned i = 0; i < kMutants; ++i) {
        const bool mutateTrace = i % 2 == 0;
        const std::vector<std::uint8_t> &base =
            mutateTrace ? baseTrace : baseLog;
        std::vector<std::uint8_t> m = base;
        switch (i / 2 % 5) {
          case 0: // bit flips
            for (std::uint64_t n = rng.range(1, 8); n > 0; --n)
                m[rng.below(m.size())] ^= 1u << rng.below(8);
            break;
          case 1: // truncation
            m.resize(rng.below(m.size()));
            break;
          case 2: { // splice: a prefix joined to another suffix
            const std::size_t cut = rng.below(base.size() + 1);
            const std::size_t from = rng.below(base.size() + 1);
            m.assign(base.begin(), base.begin() + cut);
            m.insert(m.end(), base.begin() + from, base.end());
            break;
          }
          case 3: { // inflated counts
            const std::uint64_t big =
                inflated[rng.below(std::size(inflated))];
            if (mutateTrace) {
                // The header's event or thread-end count.
                std::memcpy(m.data() + 8 + 8 * rng.below(2), &big, 8);
            } else {
                // An entry's 32-bit instruction count.
                const std::uint32_t instrs =
                    static_cast<std::uint32_t>(big | 1);
                std::memcpy(m.data() + 8 * rng.below(m.size() / 8) + 4,
                            &instrs, 4);
            }
            break;
          }
          default: // a thread or core ID's high byte
            if (mutateTrace)
                m[24 + 40 * rng.below((m.size() - 24) / 40) + 33 +
                  2 * rng.below(2)] ^= 0xff;
            else
                m[8 * rng.below(m.size() / 8) + 1] ^= 0xff;
            break;
        }
        writeBytes(mutateTrace ? tracePath : logPath, m);
        const int status = lintChild(logPath, tracePath);
        EXPECT_TRUE(status >= 0 && status <= 2)
            << "mutant " << i << " of the "
            << (mutateTrace ? "trace" : "order log") << " ended in "
            << (status < 0 ? "signal " : "exit ") << std::abs(status);
        refused += status == 1;
        writeBytes(mutateTrace ? tracePath : logPath, base);
    }
    EXPECT_GT(refused, 0u);
    std::remove(tracePath.c_str());
    std::remove(logPath.c_str());
}

} // namespace
} // namespace cord
