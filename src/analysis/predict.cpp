#include "analysis/predict.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "analysis/epoch_analyzer.h"
#include "analysis/log_checker.h"
#include "sim/flat_map.h"

namespace cord
{

bool
predictSampled(Addr word, unsigned sampleRate)
{
    if (sampleRate <= 1)
        return true;
    // splitmix64 finisher: deterministic, uniform in the low bits.
    std::uint64_t x = word ^ 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x % sampleRate == 0;
}

namespace
{

/** A racy word the first pass wants a witness for. */
struct WitnessReq
{
    Addr word = 0;
    std::uint64_t earlierIndex = 0, laterIndex = 0;
};

/** Snapshot of one racing endpoint taken by the witness pass. */
struct EndpointSnap
{
    VectorClock clock;
    std::uint64_t eventsBefore = 0; //!< thread's events before it
    ThreadId tid = 0;
};

/**
 * Second pass: rebuild the W clocks, remember per-thread event counts
 * at every sync write (ship counts) and photograph the two endpoints
 * of each requested race, then turn that into per-thread cutoffs.
 */
std::vector<RaceWitness>
buildWitnesses(const DecodedTrace &trace, unsigned n,
               const std::vector<WitnessReq> &reqs)
{
    std::vector<VectorClock> vc;
    vc.reserve(n);
    for (ThreadId t = 0; t < n; ++t) {
        vc.emplace_back(n);
        vc.back().tick(t);
    }
    FlatAddrMap<VectorClock> lastSyncWriteVc;

    // shipCount[t][k-1] = t's event count up to & including its k-th
    // sync write, i.e. the prefix another thread holding component
    // value k of t is entitled to.
    std::vector<std::vector<std::uint64_t>> shipCount(n);
    std::vector<std::uint64_t> eventCount(n, 0);

    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::size_t, bool>>>
        wanted;
    for (std::size_t r = 0; r < reqs.size(); ++r) {
        wanted[reqs[r].earlierIndex].emplace_back(r, false);
        wanted[reqs[r].laterIndex].emplace_back(r, true);
    }
    std::vector<EndpointSnap> earlier(reqs.size()), later(reqs.size());

    for (std::uint64_t i = 0; i < trace.events.size(); ++i) {
        const MemEvent &ev = trace.events[i];
        VectorClock &tvc = vc[ev.tid];

        auto wit = wanted.find(i);
        if (wit != wanted.end()) {
            for (auto [r, isLater] : wit->second) {
                EndpointSnap &s = isLater ? later[r] : earlier[r];
                s.clock = tvc;
                s.eventsBefore = eventCount[ev.tid];
                s.tid = ev.tid;
            }
        }
        ++eventCount[ev.tid];

        if (!ev.isSync())
            continue;
        const Addr wa = wordAddr(ev.addr);
        if (!ev.isWrite()) {
            if (const VectorClock *snap = lastSyncWriteVc.find(wa))
                tvc.join(*snap);
        } else {
            lastSyncWriteVc[wa] = tvc;
            shipCount[ev.tid].push_back(eventCount[ev.tid]);
            tvc.tick(ev.tid);
        }
    }

    std::vector<RaceWitness> out;
    out.reserve(reqs.size());
    for (std::size_t r = 0; r < reqs.size(); ++r) {
        RaceWitness w;
        w.word = reqs[r].word;
        w.firstIndex = reqs[r].earlierIndex;
        w.secondIndex = reqs[r].laterIndex;
        w.cutoffs.assign(n, 0);
        for (unsigned u = 0; u < n; ++u) {
            if (u == earlier[r].tid) {
                w.cutoffs[u] = earlier[r].eventsBefore;
            } else if (u == later[r].tid) {
                w.cutoffs[u] = later[r].eventsBefore;
            } else {
                const std::uint32_t c =
                    std::max(earlier[r].clock[u], later[r].clock[u]);
                if (c == 0 || shipCount[u].empty())
                    continue;
                const std::size_t k =
                    std::min<std::size_t>(c, shipCount[u].size());
                w.cutoffs[u] = shipCount[u][k - 1];
            }
        }
        out.push_back(std::move(w));
    }
    return out;
}

} // namespace

PredictiveAnalysis
PredictiveAnalysis::analyze(const DecodedTrace &trace,
                            unsigned numThreads,
                            const PredictOptions &opt)
{
    PredictiveAnalysis a;
    a.numThreads_ = HbAnalysis::resolveThreads(trace, numThreads);
    if (a.numThreads_ == 0)
        return a;

    // W differs from happens-before in exactly one place: a sync word
    // carries only a snapshot of its *last* writer's clock, not the
    // join of every writer so far.
    EngineRaces r = engineRaces<SyncOrder::LastWriter>(
        trace, a.numThreads_, [&](const MemEvent &ev) {
            const bool kept =
                predictSampled(wordAddr(ev.addr), opt.sampleRate);
            ++(kept ? a.accessesAnalyzed_ : a.accessesSkipped_);
            return kept;
        });

    // A witness for the first race on each word, in race order.
    std::vector<WitnessReq> reqs;
    std::set<Addr> reqWords;
    for (std::size_t k = 0;
         k < r.races.size() && reqs.size() < opt.maxWitnesses; ++k) {
        if (reqWords.insert(r.races[k].word).second)
            reqs.push_back(
                WitnessReq{r.races[k].word, r.earlier[k], r.later[k]});
    }
    a.races_ = std::move(r.races);
    a.racyWords_ = std::move(r.racyWords);
    if (!reqs.empty())
        a.witnesses_ = buildWitnesses(trace, a.numThreads_, reqs);
    return a;
}

bool
verifyWitness(const DecodedTrace &trace, const RaceWitness &w)
{
    const auto &events = trace.events;
    if (w.firstIndex >= events.size() || w.secondIndex >= events.size())
        return false;
    const MemEvent &e1 = events[w.firstIndex];
    const MemEvent &e2 = events[w.secondIndex];
    if (wordAddr(e1.addr) != w.word || wordAddr(e2.addr) != w.word)
        return false;
    if (e1.tid == e2.tid || e1.isSync() || e2.isSync())
        return false;
    if (!e1.isWrite() && !e2.isWrite())
        return false;
    if (e1.tid >= w.cutoffs.size() || e2.tid >= w.cutoffs.size())
        return false;

    // Replay the kept per-thread prefixes in trace order.  The witness
    // is feasible when (a) both racing accesses are exactly the next
    // event of their threads, and (b) every kept sync read still reads
    // from the same sync write it read from in the full trace, so the
    // reordered prefix takes the same sync decisions.
    std::vector<std::uint64_t> seen(w.cutoffs.size(), 0);
    FlatAddrMap<std::uint64_t> origLastWrite, keptLastWrite;
    for (std::uint64_t i = 0; i < events.size(); ++i) {
        const MemEvent &ev = events[i];
        if (ev.tid >= w.cutoffs.size())
            return false;
        const std::uint64_t ord = seen[ev.tid]++;
        const bool kept = ord < w.cutoffs[ev.tid];
        if ((i == w.firstIndex || i == w.secondIndex) &&
            (kept || ord != w.cutoffs[ev.tid])) {
            return false;
        }
        if (!ev.isSync())
            continue;
        const Addr wa = wordAddr(ev.addr);
        if (ev.isWrite()) {
            origLastWrite[wa] = i + 1;
            if (kept)
                keptLastWrite[wa] = i + 1;
        } else if (kept) {
            const std::uint64_t *o = origLastWrite.find(wa);
            const std::uint64_t *k = keptLastWrite.find(wa);
            if ((o ? *o : 0) != (k ? *k : 0))
                return false;
        }
    }
    return true;
}

bool
predictInputsValid(const std::vector<std::uint8_t> &wireLog,
                   const DecodedTrace &trace, unsigned numThreads,
                   Ts64 initialClock, LintReport &report)
{
    const std::size_t errorsBefore = report.errors();
    LogCheckOptions opt;
    opt.initialClock = initialClock;
    opt.numThreads = numThreads;
    std::optional<OrderLog> log = checkWireLog(wireLog, opt, report);
    if (log) {
        checkLogWellFormed(*log, opt, report);
        checkReplayFeasible(*log, report);
        checkLogMatchesTrace(*log, trace, report);
    }
    report.markChecked("predict.input");
    if (!log || report.errors() != errorsBefore) {
        report.error("predict.input",
                     "order log failed verification; refusing to "
                     "predict races from a corrupt recording");
        return false;
    }
    return true;
}

void
reportPrediction(const PredictiveAnalysis &pred, LintReport &report)
{
    report.markChecked("predict.races");
    report.setMetric("predict.pairs",
                     static_cast<double>(pred.pairs()));
    report.setMetric("predict.words",
                     static_cast<double>(pred.racyWords().size()));
    report.setMetric("predict.witnesses",
                     static_cast<double>(pred.witnesses().size()));
    report.setMetric("predict.accessesAnalyzed",
                     static_cast<double>(pred.accessesAnalyzed()));
    report.setMetric("predict.accessesSkipped",
                     static_cast<double>(pred.accessesSkipped()));

    constexpr std::size_t kMaxListed = 32;
    std::size_t listed = 0;
    for (Addr word : pred.racyWords()) {
        if (listed++ == kMaxListed) {
            std::ostringstream os;
            os << "... and " << (pred.racyWords().size() - kMaxListed)
               << " more predicted racy words";
            report.warning("predict.race", os.str());
            break;
        }
        std::ostringstream os;
        os << "predicted race on word 0x" << std::hex << word
           << std::dec;
        report.warning("predict.race", os.str());
    }
}

} // namespace cord
