#include "mem/timing_mem.h"

#include <optional>

#include "obs/tracer.h"
#include "sim/logging.h"

namespace cord
{

TimingMemSystem::TimingMemSystem(const MachineConfig &cfg)
    : cfg_(cfg),
      addrBus_(cfg.addrBusOccupancy, 0),
      dataBus_(cfg.dataBusOccupancy, 1),
      memBus_(cfg.offChipBusOccupancy, 2), holders_(cfg.numCores)
{
    cfg_.l1.validate();
    cfg_.l2.validate();
    l2_.reserve(cfg_.numCores);
    l1_.reserve(cfg_.numCores);
    for (unsigned i = 0; i < cfg_.numCores; ++i) {
        l2_.emplace_back(cfg_.l2);
        l1_.emplace_back(cfg_.l1);
    }
    if (cfg_.coherence == CoherenceKind::Directory) {
        // One request channel per directory slice, line-interleaved:
        // the directory replaces the shared address/timestamp bus with
        // per-slice ports, so requests to different slices proceed
        // independently.  Each port keeps the address-bus occupancy.
        sliceBus_.reserve(cfg_.numCores);
        for (unsigned i = 0; i < cfg_.numCores; ++i)
            sliceBus_.emplace_back(cfg_.addrBusOccupancy,
                                   static_cast<CoreId>(3 + i));
    }
}

BusChannel &
TimingMemSystem::requestChannel(Addr line)
{
    if (cfg_.coherence == CoherenceKind::Directory)
        return sliceBus_[homeSlice(line)];
    return addrBus_;
}

void
TimingMemSystem::handleL2Victim(CoreId core,
                                const CacheArray<L2State>::Line &victim,
                                Tick now)
{
    // Inclusion: L1 copy goes with the L2 line.
    l1_[core].invalidate(victim.addr);
    holders_.of(victim.addr).erase(core);
    if (EventTracer *t = EventTracer::active())
        t->emit(TraceEventKind::CacheEvict, now, kInvalidThread, core,
                victim.addr, victim.state.mesi == Mesi::Modified);
    if (victim.state.mesi == Mesi::Modified) {
        // Fire-and-forget write-back: occupies the buses but does not
        // extend the latency of the access that triggered the eviction.
        const Tick grant = requestChannel(victim.addr).acquire(now);
        dataBus_.acquire(grant);
        memBus_.acquire(grant);
    }
}

TimingResult
TimingMemSystem::access(CoreId core, Addr addr, bool isWrite, Tick now)
{
    cord_assert(core < cfg_.numCores, "bad core id ", core);
    const Addr line = lineAddr(addr);

    auto &l2 = l2_[core];
    auto &l1 = l1_[core];
    auto *l2Line = l2.touch(line);
    const bool l1Present = l1.touch(line) != nullptr;

    TimingResult res;

    if (l2Line && l2Line->state.mesi != Mesi::Invalid) {
        // Hit in the private hierarchy.
        const bool needUpgrade =
            isWrite && l2Line->state.mesi == Mesi::Shared;
        Tick done = now + (l1Present ? cfg_.l1HitLatency
                                     : cfg_.l2HitLatency);
        if (needUpgrade) {
            // BusUpgr: invalidate all other copies (an ownership
            // request to the line's home slice in directory mode).
            const Tick grant = requestChannel(line).acquire(now);
            done = grant + cfg_.upgradeLatency;
            res.usedAddrBus = true;
            const LineSharers::Set holders = holders_.of(line);
            holders.forEachOther(core, [&](CoreId c) {
                l2_[c].invalidate(line);
                l1_[c].invalidate(line);
                holders.erase(c);
            });
        }
        if (isWrite)
            l2Line->state.mesi = Mesi::Modified;
        if (!l1Present) {
            std::optional<CacheArray<char>::Line> v;
            l1.insert(line, v);
        }
        res.completion = done;
        res.source = l1Present ? ServiceSource::L1Hit : ServiceSource::L2Hit;
        ++serviceCounts_[static_cast<unsigned>(res.source)];
        return res;
    }

    // Miss: BusRd / BusRdX (snooping) or a request to the line's home
    // directory slice.
    res.usedAddrBus = true;
    const Tick grant = requestChannel(line).acquire(now);
    const bool directory = cfg_.coherence == CoherenceKind::Directory;
    // In directory mode the request first indirects through the
    // directory at the memory controller.
    const Tick resolved =
        directory ? grant + cfg_.directoryLatency : grant;
    const LineSharers::Set holders = holders_.of(line);
    const bool snoopHit = holders.anyOther(core);

    Tick done;
    if (snoopHit) {
        // Another private L2 supplies the line: bus snarf (snooping)
        // or a three-hop forward (directory).
        done = resolved + (directory ? cfg_.forwardLatency
                                     : cfg_.cacheToCacheLatency);
        dataBus_.acquire(resolved);
        res.source = ServiceSource::CacheToCache;
        if (isWrite) {
            // All other copies invalidated; the directory sends one
            // directed invalidation per sharer (serialized at the home
            // slice's port) instead of a broadcast.
            holders.forEachOther(core, [&](CoreId c) {
                l2_[c].invalidate(line);
                l1_[c].invalidate(line);
                holders.erase(c);
                if (directory)
                    sliceBus_[homeSlice(line)].acquire(resolved);
            });
        } else {
            // Suppliers downgrade to Shared.
            holders.forEachOther(core, [&](CoreId c) {
                l2_[c].find(line)->state.mesi = Mesi::Shared;
            });
        }
    } else {
        // Serviced by main memory.
        done = resolved + cfg_.memoryLatency;
        memBus_.acquire(resolved);
        dataBus_.acquire(done - cfg_.dataBusOccupancy);
        res.source = ServiceSource::Memory;
    }
    ++serviceCounts_[static_cast<unsigned>(res.source)];
    if (EventTracer *t = EventTracer::active())
        t->emit(TraceEventKind::CacheFill, now, kInvalidThread, core,
                line, static_cast<std::uint64_t>(res.source));

    // Install the line locally.
    std::optional<CacheArray<L2State>::Line> victim;
    auto &fresh = l2.insert(line, victim);
    if (victim)
        handleL2Victim(core, *victim, now);
    fresh.state.mesi = isWrite ? Mesi::Modified
                     : snoopHit ? Mesi::Shared
                                : Mesi::Exclusive;
    holders.insert(core);
    std::optional<CacheArray<char>::Line> l1Victim;
    l1.insert(line, l1Victim);

    res.completion = done;
    return res;
}

Tick
TimingMemSystem::chargeRaceCheck(Tick now, Addr addr,
                                 std::span<const CoreId> sharers)
{
    if (cfg_.coherence != CoherenceKind::Directory) {
        // Snooping: one broadcast address/timestamp bus transaction;
        // the timestamp response rides the dedicated snoop-response
        // wires, like coherence responses, and there is no data
        // transfer (paper Section 2.7.2).
        addrBus_.acquire(now);
        return addrBus_.occupancy();
    }
    // Directory: the check is a request to the line's home slice; the
    // slice consults its banked memory timestamps and sharer set and
    // forwards one point-to-point probe per remote sharer.  Each
    // forwarded probe occupies its *target's* slice channel, so
    // probes to distinct sharers proceed in parallel and the home
    // port serializes only the request itself.  No broadcast term: an
    // unshared line costs a single slice transaction no matter how
    // many cores exist, and a widely shared one loads each sharer's
    // port once instead of the home port N times.
    BusChannel &slice = sliceBus_[homeSlice(addr)];
    const Tick grant = slice.acquire(now);
    Tick cycles = slice.occupancy();
    for (const CoreId target : sharers) {
        cord_assert(target < sliceBus_.size(), "bad probe target ",
                    target);
        BusChannel &probe = sliceBus_[target];
        probe.acquire(grant + cfg_.directoryLatency);
        cycles += probe.occupancy();
    }
    return cycles;
}

Tick
TimingMemSystem::chargeMemTsBroadcast(Tick now, Addr addr)
{
    // Snooping broadcasts the new memory timestamp on the shared bus;
    // a directory updates only the home slice's bank.
    BusChannel &ch = requestChannel(lineAddr(addr));
    ch.acquire(now);
    return ch.occupancy();
}

void
TimingMemSystem::exportStats(StatRegistry &reg) const
{
    addrBus_.exportStats(reg, "bus.addr");
    dataBus_.exportStats(reg, "bus.data");
    memBus_.exportStats(reg, "bus.mem");
    if (!sliceBus_.empty()) {
        // Directory mode only (snooping manifests stay unchanged):
        // aggregate slice-port utilization across all slices.
        Tick busy = 0, wait = 0;
        std::uint64_t txns = 0;
        for (const BusChannel &s : sliceBus_) {
            busy += s.busyCycles();
            wait += s.waitCycles();
            txns += s.transactions();
        }
        reg.set("bus.slice.transactions", txns);
        reg.set("bus.slice.busyCycles", busy);
        reg.set("bus.slice.waitCycles", wait);
    }
    reg.set("service.l1Hits",
            serviceCount(ServiceSource::L1Hit));
    reg.set("service.l2Hits",
            serviceCount(ServiceSource::L2Hit));
    reg.set("service.cacheToCache",
            serviceCount(ServiceSource::CacheToCache));
    reg.set("service.memory",
            serviceCount(ServiceSource::Memory));
}

} // namespace cord
