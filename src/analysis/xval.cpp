#include "analysis/xval.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace cord
{

const char *
escapeKindName(EscapeKind k)
{
    switch (k) {
      case EscapeKind::UnobservedWord:
        return "unobserved-word";
      case EscapeKind::SingleThreadInBaseline:
        return "single-thread-in-baseline";
      case EscapeKind::OrderedInBaseline:
        return "ordered-in-baseline";
    }
    return "?";
}

namespace
{

/**
 * Classify every missed word from what the baseline trace contained
 * for it plus the first explored schedule that manifested it.  One
 * linear pass over the baseline; per-word state only for the (few)
 * missed words.
 */
std::vector<XvalEscape>
classifyEscapes(const XvalResult &r, const ScheduleRun &base,
                const std::vector<ScheduleRun> &runs)
{
    struct BaseStats
    {
        std::uint64_t accesses = 0;
        std::uint64_t writes = 0;
        std::uint64_t threadMask = 0; // tids < 64; overflow saturates
        unsigned threads = 0;
    };
    std::map<Addr, BaseStats> stats;
    for (Addr w : r.missedWords)
        stats.emplace(w, BaseStats{});

    if (base.trace) {
        for (const MemEvent &ev : base.trace->events) {
            auto it = stats.find(ev.addr);
            if (it == stats.end())
                continue;
            BaseStats &s = it->second;
            ++s.accesses;
            if (ev.isWrite())
                ++s.writes;
            if (ev.tid < 64) {
                const std::uint64_t bit = std::uint64_t(1) << ev.tid;
                if (!(s.threadMask & bit)) {
                    s.threadMask |= bit;
                    ++s.threads;
                }
            } else {
                ++s.threads; // conservative for huge thread counts
            }
        }
    }

    std::vector<XvalEscape> escapes;
    escapes.reserve(r.missedWords.size());
    for (Addr w : r.missedWords) {
        const BaseStats &s = stats.at(w);
        XvalEscape e;
        e.word = w;
        e.baselineAccesses = s.accesses;
        e.baselineWrites = s.writes;
        e.baselineThreads = s.threads;
        if (s.accesses == 0)
            e.kind = EscapeKind::UnobservedWord;
        else if (s.threads <= 1)
            e.kind = EscapeKind::SingleThreadInBaseline;
        else
            e.kind = EscapeKind::OrderedInBaseline;
        for (const ScheduleRun &run : runs) {
            if (!run.completed)
                continue;
            if (std::find(run.idealRacyWords.begin(),
                          run.idealRacyWords.end(),
                          w) != run.idealRacyWords.end()) {
                e.firstSchedule = run.index;
                break;
            }
        }
        escapes.push_back(e);
    }
    return escapes;
}

} // namespace

XvalResult
runXval(const XvalSpec &spec)
{
    ExploreSpec es = spec.explore;
    es.recordTrace = true;
    const ExploreResult ex = exploreSchedules(es);

    XvalResult r;
    r.schedules = static_cast<unsigned>(ex.runs.size());
    r.completed = ex.completedRuns;
    for (const ScheduleRun &run : ex.runs) {
        if (!run.completed)
            continue;
        r.manifestedWords.insert(run.idealRacyWords.begin(),
                                 run.idealRacyWords.end());
    }

    const ScheduleRun &base = ex.runs.front();
    r.baselineCompleted = base.completed && base.trace != nullptr;
    if (r.baselineCompleted) {
        const PredictiveAnalysis pred =
            PredictiveAnalysis::analyze(*base.trace, spec.predict);
        r.predictedPairs = pred.pairs();
        r.predictedWords = pred.racyWords();
    }

    for (Addr w : r.manifestedWords) {
        if (!r.predictedWords.count(w))
            r.missedWords.push_back(w);
    }
    r.escapes = classifyEscapes(r, base, ex.runs);
    return r;
}

void
reportXval(const XvalResult &r, LintReport &report, bool failOnEscape)
{
    report.markChecked("xval.superset");
    report.setMetric("xval.schedules", static_cast<double>(r.schedules));
    report.setMetric("xval.completed", static_cast<double>(r.completed));
    report.setMetric("xval.predictedPairs",
                     static_cast<double>(r.predictedPairs));
    report.setMetric("xval.predictedWords",
                     static_cast<double>(r.predictedWords.size()));
    report.setMetric("xval.manifestedWords",
                     static_cast<double>(r.manifestedWords.size()));
    report.setMetric("xval.missedWords",
                     static_cast<double>(r.missedWords.size()));

    std::size_t unobserved = 0, singleThread = 0, ordered = 0;
    for (const XvalEscape &e : r.escapes) {
        switch (e.kind) {
          case EscapeKind::UnobservedWord:
            ++unobserved;
            break;
          case EscapeKind::SingleThreadInBaseline:
            ++singleThread;
            break;
          case EscapeKind::OrderedInBaseline:
            ++ordered;
            break;
        }
    }
    report.setMetric("xval.escape.unobserved",
                     static_cast<double>(unobserved));
    report.setMetric("xval.escape.singleThread",
                     static_cast<double>(singleThread));
    report.setMetric("xval.escape.ordered",
                     static_cast<double>(ordered));

    if (!r.baselineCompleted) {
        report.error("xval.superset",
                     "baseline schedule did not complete; nothing to "
                     "predict from");
        return;
    }

    constexpr std::size_t kMaxListed = 16;
    std::size_t listed = 0;
    for (const XvalEscape &e : r.escapes) {
        if (listed++ == kMaxListed) {
            std::ostringstream os;
            os << "... and " << (r.escapes.size() - kMaxListed)
               << " more escaped words";
            if (failOnEscape)
                report.error("xval.escape", os.str());
            else
                report.warning("xval.escape", os.str());
            break;
        }
        std::ostringstream os;
        os << "word 0x" << std::hex << e.word << std::dec
           << " escaped the baseline-trace prediction: kind="
           << escapeKindName(e.kind) << ", first manifested in schedule "
           << e.firstSchedule << "; baseline witness: "
           << e.baselineAccesses << " accesses (" << e.baselineWrites
           << " writes) from " << e.baselineThreads << " thread(s)";
        if (failOnEscape)
            report.error("xval.escape", os.str());
        else
            report.warning("xval.escape", os.str());
    }
    if (r.missedWords.empty()) {
        std::ostringstream os;
        os << "predicted words (" << r.predictedWords.size()
           << ") cover every manifested racy word ("
           << r.manifestedWords.size() << ") across " << r.completed
           << "/" << r.schedules << " completed schedules";
        report.info("xval.superset", os.str());
    }
}

} // namespace cord
