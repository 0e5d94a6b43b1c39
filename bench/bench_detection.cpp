/**
 * @file
 * Every detection table: Figures 10 and 12-17, the ablation of CORD's
 * design choices and the sensitivity sweeps.  One injection campaign
 * per app carries every detector the tables compare, each distinct
 * configuration once, and every table is read off that one result.
 * Detectors are passive observers of the same committed stream, so
 * each table's numbers equal those of a campaign carrying only its
 * own detectors.
 *
 * Paper findings, per figure:
 *   10  Many removals are redundant (e.g. a critical section
 *       re-protected by a lock the same thread held last), so the
 *       fraction that races varies widely per application -- which is
 *       exactly why always-on detection matters.
 *   12  CORD (D = 16) detects ~83% of the problems a CORD-like
 *       vector-clock scheme (VC-L2Cache) finds and ~77% of what Ideal
 *       finds; water-n2 is the hard case where scalar clocks find
 *       (almost) nothing.
 *   13  CORD's raw race detection collapses to ~20% of Ideal, but
 *       races caused by one problem cluster weakly, so problem
 *       detection stays high: the simplifications sacrificed the less
 *       valuable raw capability.
 *   14  Vector clocks with limited access histories -- InfCache
 *       (unlimited residency, two timestamps per line), L2Cache (32KB)
 *       and L1Cache (8KB): two timestamps per line and L2-sized
 *       residency lose few problems; the small L1 loses significantly
 *       more, though most problems are still found.
 *   15  Even InfCache misses 18% of raw races; L2Cache and L1Cache
 *       miss most of them -- raw detection is what the buffer limits
 *       sacrifice.
 *   16  Scalar clocks with sync-read updates of D = 1, 4, 16, 256
 *       against VC-L2Cache: D = 1 loses many problems, detection
 *       improves steeply up to D = 16 and only barnes benefits beyond
 *       (the paper's +62% problem-detection optimization, Section 2.6).
 *   17  The same D sweep for raw races: D = 1 loses most raw
 *       detection; raw rates improve with D up to 16.
 *
 * Beyond the paper's figures:
 *   Ablation     the default CORD with one design choice undone: one
 *                timestamp per line (Section 2.3, Figure 2's
 *                history-erasure problem), no check-filter bits
 *                (Section 2.7.2), no main-memory timestamps
 *                (Section 2.5) and no thread-migration clock bump
 *                (Section 2.7.4).
 *   Sensitivity  CORD (D = 16) over history residency capacity (the
 *                paper fixes 8KB L1 / 32KB L2), and over D at a finer
 *                grain than Figure 16.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace cord;

namespace
{

using Results = std::vector<std::pair<std::string, CampaignResult>>;

/** One table column: a per-app count, or a per-app rate that the
 *  Average row averages (count columns stay blank there). */
struct Column
{
    std::string header;
    std::function<std::uint64_t(const CampaignResult &)> count;
    std::function<double(const CampaignResult &)> rate;
};

struct Figure
{
    std::string title;
    std::vector<Column> columns;
};

Column
countOf(std::string header,
        std::function<std::uint64_t(const CampaignResult &)> fn)
{
    return {std::move(header), std::move(fn), {}};
}

Column
rateOf(std::string header, std::function<double(const CampaignResult &)> fn)
{
    return {std::move(header), {}, std::move(fn)};
}

/** @p label's count in @p m (0 when the label is absent). */
template <typename Map>
std::uint64_t
labelCount(const Map &m, const std::string &label)
{
    const auto it = m.find(label);
    return it == m.end() ? 0 : it->second;
}

Column
problemsOf(std::string header, std::string label)
{
    return countOf(std::move(header), [label](const CampaignResult &r) {
        return labelCount(r.problems, label);
    });
}

Column
rawOf(std::string header, std::string label)
{
    return countOf(std::move(header), [label](const CampaignResult &r) {
        return labelCount(r.rawRaces, label);
    });
}

/** @p label's problem detection rate against @p vs ("" = Ideal). */
Column
problemRate(std::string header, std::string label, std::string vs = "")
{
    return rateOf(std::move(header), [label, vs](const CampaignResult &r) {
        return vs.empty() ? r.problemRateVsIdeal(label)
                          : r.problemRateVs(label, vs);
    });
}

/** @p label's raw race detection rate against @p vs ("" = Ideal). */
Column
rawRate(std::string header, std::string label, std::string vs = "")
{
    return rateOf(std::move(header), [label, vs](const CampaignResult &r) {
        return vs.empty() ? r.rawRateVsIdeal(label)
                          : r.rawRateVs(label, vs);
    });
}

const Column kManifested = countOf(
    "Manifested", [](const CampaignResult &r) { return r.manifested; });
const Column kIdealRaces = countOf(
    "IdealRaces", [](const CampaignResult &r) { return r.idealRawRaces; });

const std::string kCord = "CORD-D16";
const std::string kVcL2 = "VC-L2Cache";

std::vector<Figure>
figures()
{
    const Figure f10{
        "Figure 10: injected sync removals causing >=1 data race "
        "(per Ideal)",
        {countOf("Injections",
                 [](const CampaignResult &r) { return r.injections; }),
         kManifested,
         rateOf("Rate",
                [](const CampaignResult &r) {
                    return r.manifestationRate();
                }),
         countOf("Timeouts",
                 [](const CampaignResult &r) { return r.timeouts; }),
         countOf("SyncInstances", [](const CampaignResult &r) {
             return r.totalInstances;
         })}};
    const Figure f12{"Figure 12: problem detection rate "
                     "(paper: 83% vs vector clock, 77% vs Ideal)",
                     {kManifested, problemsOf("CORD", kCord),
                      problemsOf("VC-L2", kVcL2),
                      problemRate("vs VectorClock", kCord, kVcL2),
                      problemRate("vs Ideal", kCord)}};
    const Figure f13{"Figure 13: raw data race detection rate "
                     "(paper: ~20% of Ideal)",
                     {kIdealRaces, rawOf("CORDRaces", kCord),
                      rawOf("VCRaces", kVcL2),
                      rawRate("vs VectorClock", kCord, kVcL2),
                      rawRate("vs Ideal", kCord)}};
    Figure f14{"Figure 14: problem detection vs Ideal with limited "
               "access histories (vector clocks)",
               {kManifested}};
    Figure f15{"Figure 15: raw race detection vs Ideal with limited "
               "access histories (vector clocks)",
               {kIdealRaces}};
    for (const std::string h : {"InfCache", "L2Cache", "L1Cache"}) {
        f14.columns.push_back(problemRate(h, "VC-" + h));
        f15.columns.push_back(rawRate(h, "VC-" + h));
    }
    Figure f16{"Figure 16: problem detection with scalar clocks vs "
               "VC-L2Cache (D sweep)",
               {kManifested}};
    Figure f17{"Figure 17: raw race detection with scalar clocks vs "
               "VC-L2Cache (D sweep)",
               {kIdealRaces}};
    for (const std::string h : {"D1", "D4", "D16", "D256"}) {
        f16.columns.push_back(problemRate(h, "CORD-" + h, kVcL2));
        f17.columns.push_back(rawRate(h, "CORD-" + h, kVcL2));
    }

    Figure ablation{"Ablation: problem detection vs Ideal", {}};
    Figure ablationRaw{"Ablation: raw race detection vs Ideal", {}};
    for (const std::string h :
         {"CORD", "1-entry/line", "no-filters", "no-memTs",
          "no-migration"}) {
        const std::string label = h == "CORD" ? kCord : h;
        ablation.columns.push_back(problemRate(h, label));
        ablationRaw.columns.push_back(rawRate(h, label));
    }
    Figure capacity{"Sensitivity: problem detection vs Ideal over "
                    "history capacity (D=16)",
                    {}};
    // The paper's 32KB L2 residency is the default CORD's.
    for (const std::string h :
         {"4KB", "8KB", "16KB", "32KB", "64KB", "inf"})
        capacity.columns.push_back(
            problemRate(h, h == "32KB" ? kCord : h));
    Figure dSweep{"Sensitivity: problem detection vs Ideal over D "
                  "(paper picks D=16)",
                  {}};
    for (const unsigned d : {1, 2, 4, 8, 16, 32, 64, 128}) {
        const std::string h = "D" + std::to_string(d);
        dSweep.columns.push_back(problemRate(h, "CORD-" + h));
    }
    return {f10, f12, f13, f14, f15, f16, f17,
            ablation, ablationRaw, capacity, dSweep};
}

/**
 * Every table's detectors, each distinct configuration once: CORD over
 * D, the three vector-clock history limits, the ablation variants and
 * the history capacities of the default (D = 16) CORD.
 */
std::vector<DetectorSpec>
detectorSpecs()
{
    std::vector<DetectorSpec> specs;
    for (const std::uint32_t d : {1, 2, 4, 8, 16, 32, 64, 128, 256})
        specs.push_back(cordSpec(d));
    specs.push_back(vcInfCacheSpec());
    specs.push_back(vcL2CacheSpec());
    specs.push_back(vcL1CacheSpec());

    CordConfig c;
    c.entriesPerLine = 1;
    specs.push_back(cordSpecWith(c, "1-entry/line"));
    c = {};
    c.checkFilterBits = false;
    specs.push_back(cordSpecWith(c, "no-filters"));
    c = {};
    c.memTimestamps = false;
    specs.push_back(cordSpecWith(c, "no-memTs"));
    c = {};
    c.migrationIncrement = false;
    specs.push_back(cordSpecWith(c, "no-migration"));

    // Residency capacities beside the default 32KB/4-way L2.
    struct Capacity
    {
        const char *label;
        std::uint32_t kb;
        std::uint32_t ways;
    };
    for (const Capacity &cap : {Capacity{"4KB", 4, 2}, {"8KB", 8, 2},
                                {"16KB", 16, 4}, {"64KB", 64, 8}}) {
        c = {};
        c.residency = CacheGeometry{cap.kb * 1024, kLineBytes, cap.ways};
        specs.push_back(cordSpecWith(c, cap.label));
    }
    c = {};
    c.infiniteResidency = true;
    specs.push_back(cordSpecWith(c, "inf"));
    return specs;
}

void
printFigure(const Figure &fig, const Results &results)
{
    std::vector<std::string> headers{"App"};
    for (const Column &c : fig.columns)
        headers.push_back(c.header);
    TextTable t(headers);
    for (const auto &[app, r] : results) {
        std::vector<std::string> row{app};
        for (const Column &c : fig.columns)
            row.push_back(c.rate ? TextTable::percent(c.rate(r))
                                 : std::to_string(c.count(r)));
        t.addRow(row);
    }
    std::vector<std::string> avg{"Average"};
    for (const Column &c : fig.columns)
        avg.push_back(c.rate ? TextTable::percent(
                                   bench::averageOver(results, c.rate))
                             : "");
    t.addRow(avg);
    t.print(fig.title);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, {"--jobs", "--manifest", "--load"});
    std::printf("CORD reproduction -- Figures 10, 12-17, ablation and "
                "sensitivity\n");
    const Results results = bench::runAllCampaigns(detectorSpecs());
    for (const Figure &fig : figures())
        printFigure(fig, results);
    return 0;
}
