#include "obs/profiler.h"

#include "sim/stats.h"

namespace cord
{

thread_local Profiler *Profiler::active_ = nullptr;

namespace
{

struct DomainInfo
{
    const char *name; //!< stable lowercase name (docs, reports)
    const char *key;  //!< metric-key segment ("profile.<key>.*")
};

constexpr DomainInfo kDomains[kProfDomains] = {
    {"kernel_dispatch", "kernelDispatch"},
    {"bus_arbitration", "busArbitration"},
    {"mem_service", "memService"},
    {"cord_check", "cordCheck"},
    {"cord_log", "cordLog"},
    {"cord_timestamp", "cordTimestamp"},
    {"cord_history", "cordHistory"},
    {"vc_baseline", "vcBaseline"},
    {"analysis", "analysis"},
};

} // namespace

const char *
profDomainName(ProfDomain d)
{
    return kDomains[static_cast<unsigned>(d)].name;
}

const char *
profDomainKey(ProfDomain d)
{
    return kDomains[static_cast<unsigned>(d)].key;
}

std::uint64_t
Profiler::wallEstimateNs(ProfDomain d) const
{
    const unsigned k = i(d);
    if (wallSamples_[k] == 0)
        return 0;
    const std::uint64_t always = wallAlways_[k];
    const std::uint64_t sampledCalls =
        wallSamples_[k] > always ? wallSamples_[k] - always : 0;
    const std::uint64_t periodicCalls =
        wallCalls_[k] > always ? wallCalls_[k] - always : 0;
    if (sampledCalls == 0)
        return wallNs_[k]; // everything was always-measured
    // Split the measured time: always-measured calls contribute as-is
    // (approximated by the mean sample), periodic samples extrapolate.
    const double meanNs =
        static_cast<double>(wallNs_[k]) / wallSamples_[k];
    const double est = meanNs * (static_cast<double>(always) +
                                 static_cast<double>(periodicCalls));
    return static_cast<std::uint64_t>(est);
}

bool
Profiler::anyRecorded() const
{
    for (unsigned k = 0; k < kProfDomains; ++k)
        if (calls_[k] || wallCalls_[k])
            return true;
    return false;
}

void
Profiler::clear()
{
    for (unsigned k = 0; k < kProfDomains; ++k) {
        cycles_[k] = 0;
        calls_[k] = 0;
        // Time the last call of each period, never the cold first
        // call: a domain with fewer calls than one period then has no
        // samples instead of one unrepresentative one.
        wallCountdown_[k] = wallPeriod_;
        wallCalls_[k] = 0;
        wallAlways_[k] = 0;
        wallSamples_[k] = 0;
        wallNs_[k] = 0;
    }
}

void
exportProfileStats(const Profiler &p, StatRegistry &reg)
{
    for (unsigned k = 0; k < kProfDomains; ++k) {
        const ProfDomain d = static_cast<ProfDomain>(k);
        if (p.calls(d) == 0 && p.cycles(d) == 0)
            continue;
        const std::string base = std::string("profile.") + kDomains[k].key;
        reg.set(base + ".cycles", p.cycles(d));
        reg.set(base + ".calls", p.calls(d));
    }
}

} // namespace cord
