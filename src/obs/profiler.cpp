#include "obs/profiler.h"

#include "sim/stats.h"

namespace cord
{

thread_local Profiler *Profiler::active_ = nullptr;

namespace
{

/** Metric-key segment per domain ("profile.<key>.*"). */
constexpr const char *kDomainKeys[kProfDomains] = {
    "busArbitration", "memService", "cordCheck", "cordTimestamp",
    "cordHistory",
};

} // namespace

const char *
profDomainKey(ProfDomain d)
{
    return kDomainKeys[static_cast<unsigned>(d)];
}

bool
Profiler::anyRecorded() const
{
    for (unsigned k = 0; k < kProfDomains; ++k)
        if (calls_[k])
            return true;
    return false;
}

void
Profiler::clear()
{
    for (unsigned k = 0; k < kProfDomains; ++k) {
        cycles_[k] = 0;
        calls_[k] = 0;
    }
}

void
exportProfileStats(const Profiler &p, StatRegistry &reg)
{
    for (unsigned k = 0; k < kProfDomains; ++k) {
        const ProfDomain d = static_cast<ProfDomain>(k);
        if (p.calls(d) == 0 && p.cycles(d) == 0)
            continue;
        const std::string base = std::string("profile.") + kDomainKeys[k];
        reg.set(base + ".cycles", p.cycles(d));
        reg.set(base + ".calls", p.calls(d));
    }
}

} // namespace cord
