/**
 * @file
 * Schedule-exploration study: manifestation rate as a function of the
 * number of schedules explored per injection (docs/SCHEDULING.md).
 *
 * The paper's Figure 10 measures how often a removed synchronization
 * instance manifests as a data race -- under exactly one interleaving
 * per injection.  This bench reruns the injection campaign with the
 * schedules axis enabled for each exploration policy (perturb, pct)
 * and reports the cumulative manifested count after 1..S schedules:
 * how much detection opportunity additional interleavings buy, and how
 * much of the schedule space each policy actually samples (distinct
 * interleaving signatures).  Schedule 1 is always the unperturbed
 * baseline, so the first column reproduces the Figure 10 numbers.
 *
 * Extra environment knob (on top of bench_common.h's):
 *   CORD_SCHEDULES   schedules per injection (default 4)
 *
 * Writes a deterministic manifest to BENCH_schedules.json by default
 * (--manifest FILE overrides the path).
 */

#include <cstdio>

#include "bench_common.h"

using namespace cord;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, {"--jobs", "--manifest", "--load"});
    if (bench::args().manifestPath.empty())
        bench::args().manifestPath = "BENCH_schedules.json";
    const unsigned schedules = bench::envUnsigned("CORD_SCHEDULES", 4);

    std::printf("CORD reproduction -- manifestation vs schedules "
                "(%u per injection)\n",
                schedules);

    const SchedKind kinds[] = {SchedKind::Perturb, SchedKind::Pct};
    std::vector<std::pair<std::string, CampaignResult>> results;
    TextTable t({"App", "Policy", "Inj", "Manifested cum. (1..S)",
                 "Rate@1", "Rate@S", "Interleavings", "Timeouts"});
    for (const std::string &app : bench::appList()) {
        for (const SchedKind kind : kinds) {
            std::fprintf(stderr, "  [explore] %s under %s...\n",
                         app.c_str(), schedKindName(kind));
            CampaignConfig cfg = bench::campaignFor(app);
            cfg.schedules = schedules;
            cfg.sched.kind = kind;
            // Only the Ideal detector (built into the campaign) is
            // needed for manifestation accounting.
            const CampaignResult r = runCampaign(cfg, {});

            std::string curve;
            for (unsigned c : r.manifestedCum) {
                if (!curve.empty())
                    curve += " ";
                curve += std::to_string(c);
            }
            const double rate1 =
                r.injections ? static_cast<double>(
                                   r.manifestedCum.empty()
                                       ? 0
                                       : r.manifestedCum.front()) /
                                   r.injections
                             : 0.0;
            t.addRow({app, schedKindName(kind),
                      std::to_string(r.injections), curve,
                      TextTable::percent(rate1),
                      TextTable::percent(r.manifestationRate()),
                      std::to_string(r.distinctSignatures),
                      std::to_string(r.timeouts)});
            results.emplace_back(
                app + "." + schedKindName(kind), r);
        }
    }
    t.print("Manifestation rate vs schedules explored");

    bench::writeCampaignManifest(results);
    return 0;
}
