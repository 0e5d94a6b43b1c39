#include "analysis/cordlint_cli.h"

#include "sim/parse_num.h"
#include "sim/types.h"

namespace cord
{

const char *
cordlintUsageText()
{
    return
        "usage: cordlint [MODE] [options]\n"
        "\n"
        "Modes (first non-flag argument; default check):\n"
        "  check               run the artifact check suite\n"
        "  predict             predict races a different schedule could\n"
        "                      manifest, from one recorded trace\n"
        "  xval                explore schedules and verify the\n"
        "                      prediction covers every manifested race\n"
        "\n"
        "check options:\n"
        "  --log FILE          wire-format order log (8 bytes/entry)\n"
        "  --trace FILE        access trace of the same run\n"
        "  --threads N         declared thread count (default: derived)\n"
        "  --d N               CORD margin D for the audit (default 16)\n"
        "  --no-audit          skip the (more expensive) coverage audit\n"
        "  at least one of --log / --trace is required\n"
        "\n"
        "predict options:\n"
        "  --trace FILE        access trace to predict from (required)\n"
        "  --log FILE          order log; when given it is verified and\n"
        "                      a corrupt log aborts the prediction\n"
        "  --threads N         declared thread count (default: derived)\n"
        "  --sample-rate N     analyze one in N data words (default 1)\n"
        "  --max-witnesses N   witness cap per report (default 16)\n"
        "\n"
        "xval options:\n"
        "  --workload NAME     workload to explore (default fft)\n"
        "  --scale N           input scale (default 4)\n"
        "  --threads N         software threads (default 4)\n"
        "  --cores N           processors (default 4)\n"
        "  --load N            offered load percent for server-family\n"
        "                      workloads (default 100)\n"
        "  --seed N            run seed (default 1)\n"
        "  --schedules M       schedules to explore (default 32)\n"
        "  --sched NAME        baseline, perturb (default) or pct\n"
        "  --jobs N            exploration worker threads (default 1)\n"
        "  --inject TID:SEQ    remove thread TID's SEQ-th sync instance\n"
        "  --known-races       include the apps' pre-existing races\n"
        "  --sample-rate N     prediction sampling (superset only\n"
        "                      guaranteed at 1)\n"
        "  --d N               CORD margin of the explored runs\n"
        "  --fail-on-escape    exit nonzero when a manifested race\n"
        "                      escapes the prediction (escapes are\n"
        "                      classified warnings by default)\n"
        "\n"
        "any mode:\n"
        "  --json              emit the report as JSON instead of text\n"
        "  --strict            exit nonzero on warnings, not just errors\n"
        "  --help              print this message and exit\n"
        "\n"
        "Exit status: 0 = clean, 1 = findings, 2 = usage error.\n";
}

namespace
{

/** Thrown for any invalid invocation; becomes CliStatus::Error. */
struct CliError
{
    std::string msg;
};

[[noreturn]] void
fail(const std::string &msg)
{
    throw CliError{msg};
}

/** parseUnsigned, failing with a CliError on a malformed value. */
std::uint64_t
parseNum(const std::string &flag, const std::string &str,
         std::uint64_t min, std::uint64_t max = ~std::uint64_t{0})
{
    const ParsedUnsigned r = parseUnsigned(flag, str, min, max);
    if (!r)
        fail(r.error);
    return r.value;
}

const char *
modeName(LintMode m)
{
    switch (m) {
      case LintMode::Check:
        return "check";
      case LintMode::Predict:
        return "predict";
      case LintMode::Xval:
        return "xval";
    }
    return "?";
}

CordlintCli
parseOrThrow(const std::vector<std::string> &args)
{
    CordlintCli cli;
    std::size_t start = 0;
    bool haveThreads = false, haveSampleRate = false;
    bool haveMaxWitnesses = false, haveD = false;
    bool haveXvalFlags = false;
    std::string firstXvalFlag;

    if (!args.empty() && !args[0].empty() && args[0][0] != '-') {
        start = 1;
        if (args[0] == "check") {
            cli.mode = LintMode::Check;
        } else if (args[0] == "predict") {
            cli.mode = LintMode::Predict;
        } else if (args[0] == "xval") {
            cli.mode = LintMode::Xval;
        } else {
            fail("unknown mode '" + args[0] +
                 "' (expected check, predict or xval)");
        }
    }

    for (std::size_t i = start; i < args.size(); ++i) {
        std::string a = args[i];
        // Support --opt=value next to --opt value.
        std::string inlineValue;
        bool haveInline = false;
        if (const std::size_t eq = a.find('=');
            a.size() > 2 && a[0] == '-' && eq != std::string::npos) {
            inlineValue = a.substr(eq + 1);
            a.resize(eq);
            haveInline = true;
        }
        auto next = [&]() -> std::string {
            if (haveInline)
                return inlineValue;
            if (i + 1 >= args.size())
                fail(a + " requires a value");
            return args[++i];
        };
        auto num = [&](std::uint64_t min,
                       std::uint64_t max = ~std::uint64_t{0}) {
            return parseNum(a, next(), min, max);
        };
        auto xvalFlag = [&]() {
            if (!haveXvalFlags)
                firstXvalFlag = a;
            haveXvalFlags = true;
        };
        if (a == "--help" || a == "-h") {
            cli.status = CliStatus::Help;
            return cli;
        } else if (a == "--log") {
            cli.logPath = next();
        } else if (a == "--trace") {
            cli.tracePath = next();
        } else if (a == "--threads") {
            haveThreads = true;
            cli.threads = static_cast<unsigned>(num(0, kMaxThreads));
        } else if (a == "--d") {
            haveD = true;
            cli.d = static_cast<std::uint32_t>(num(0, 1u << 30));
        } else if (a == "--no-audit") {
            cli.audit = false;
        } else if (a == "--json") {
            cli.json = true;
        } else if (a == "--strict") {
            cli.strict = true;
        } else if (a == "--sample-rate") {
            haveSampleRate = true;
            cli.sampleRate = static_cast<unsigned>(num(1, 1u << 20));
        } else if (a == "--max-witnesses") {
            haveMaxWitnesses = true;
            cli.maxWitnesses = static_cast<unsigned>(num(0, 1u << 16));
        } else if (a == "--workload") {
            xvalFlag();
            cli.workload = next();
        } else if (a == "--scale") {
            xvalFlag();
            cli.scale = static_cast<unsigned>(num(1, 1u << 20));
        } else if (a == "--cores") {
            xvalFlag();
            cli.cores = static_cast<unsigned>(num(1, kMaxCores));
        } else if (a == "--load") {
            xvalFlag();
            cli.load = static_cast<unsigned>(num(1, 100000));
        } else if (a == "--seed") {
            xvalFlag();
            cli.seed = num(0);
        } else if (a == "--schedules") {
            xvalFlag();
            cli.schedules = static_cast<unsigned>(num(1, 100000));
        } else if (a == "--sched") {
            xvalFlag();
            const std::string name = next();
            if (!schedKindFromName(name, cli.sched.kind))
                fail("--sched expects baseline, perturb or pct, got '" +
                     name + "'");
        } else if (a == "--jobs") {
            xvalFlag();
            cli.jobs = static_cast<unsigned>(num(0, 4096));
        } else if (a == "--inject") {
            xvalFlag();
            const std::string spec = next();
            const std::size_t colon = spec.find(':');
            if (colon == std::string::npos)
                fail("--inject expects TID:SEQ, got '" + spec + "'");
            cli.haveInjection = true;
            cli.pick.tid = static_cast<ThreadId>(parseNum(
                "--inject TID", spec.substr(0, colon), 0, 1023));
            cli.pick.seqInThread =
                parseNum("--inject SEQ", spec.substr(colon + 1), 0);
        } else if (a == "--known-races") {
            xvalFlag();
            cli.knownRaces = true;
        } else if (a == "--fail-on-escape") {
            xvalFlag();
            cli.failOnEscape = true;
        } else {
            fail("unknown option '" + a + "'");
        }
    }

    // Flag-combination audit: every flag outside its mode is an error,
    // never silently ignored (same contract as cordsim).
    const char *mode = modeName(cli.mode);
    if (cli.mode != LintMode::Xval && haveXvalFlags)
        fail(firstXvalFlag + " only applies to xval mode, not " + mode);
    if (cli.mode != LintMode::Predict && haveMaxWitnesses)
        fail("--max-witnesses only applies to predict mode, not " +
             std::string(mode));
    if (cli.mode == LintMode::Check && haveSampleRate)
        fail("--sample-rate only applies to predict/xval modes");
    if (cli.mode != LintMode::Check && !cli.audit)
        fail("--no-audit only applies to check mode, not " +
             std::string(mode));
    if (cli.mode == LintMode::Xval) {
        if (!cli.logPath.empty() || !cli.tracePath.empty())
            fail("--log/--trace do not apply to xval mode (it runs "
                 "the workload itself)");
        if (!haveThreads)
            cli.threads = 4;
        if (cli.threads == 0)
            fail("--threads must be at least 1 in xval mode");
        if (cli.haveInjection && cli.pick.tid >= cli.threads)
            fail("--inject thread " + std::to_string(cli.pick.tid) +
                 " does not exist with --threads " +
                 std::to_string(cli.threads));
    } else if (cli.mode == LintMode::Predict) {
        if (cli.tracePath.empty())
            fail("predict mode requires --trace");
        if (haveD)
            fail("--d only applies to check/xval modes, not predict");
    } else {
        if (cli.logPath.empty() && cli.tracePath.empty())
            fail("at least one of --log / --trace is required");
    }
    return cli;
}

} // namespace

CordlintCli
parseCordlintCli(const std::vector<std::string> &args)
{
    try {
        return parseOrThrow(args);
    } catch (const CliError &e) {
        CordlintCli cli;
        cli.status = CliStatus::Error;
        cli.error = e.msg;
        return cli;
    }
}

} // namespace cord
