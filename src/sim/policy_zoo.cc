/**
 * @file
 * Policy zoo implementation.
 */

#include "sim/policy_zoo.hh"

#include <memory>

#include "core/bypass_gippr.hh"
#include "core/rrip_ipv.hh"
#include "core/vectors.hh"
#include "policies/dip.hh"
#include "policies/fifo.hh"
#include "policies/random.hh"
#include "policies/rrip.hh"
#include "policies/ship.hh"
#include "sim/fastpath/scalar_model.hh"
#include "util/log.hh"

namespace gippr
{

namespace
{

/**
 * Mirror a packed replay into the registry the same way a
 * telemetry-attached SetAssocCache (and DgipprPolicy) would: live
 * counters cover the whole trace, warmup included, and the duel
 * winner gauge holds the final winner.  Duel keys follow the leader
 * misses, which only Dgippr stats carry: RripPolicy exports no duel
 * instruments, so a packed DRRIP writes none either.
 */
void
mirrorTelemetry(telemetry::MetricRegistry &registry,
                const std::string &prefix,
                const fastpath::ReplayStats &stats)
{
    registry.counter(prefix + ".hits").increment(stats.total.hits);
    registry.counter(prefix + ".demand_misses")
        .increment(stats.total.demandMisses);
    registry.counter(prefix + ".bypasses").increment(0);
    registry.counter(prefix + ".evictions")
        .increment(stats.total.evictions);
    registry.counter(prefix + ".writebacks")
        .increment(stats.total.writebacks);
    for (size_t i = 0; i < stats.leaderMisses.size(); ++i)
        registry
            .counter(prefix + ".duel.leader_misses." +
                     std::to_string(i))
            .increment(stats.leaderMisses[i]);
    if (!stats.leaderMisses.empty())
        registry.gauge(prefix + ".duel.winner").set(stats.finalWinner);
}

/** A packable policy: its factory builds the spec's scalar object. */
PolicyDef
specDef(const std::string &name, fastpath::ReplaySpec spec)
{
    PolicyFactory make = fastpath::SpecFactory{spec};
    return {name, std::move(make), std::move(spec)};
}

} // namespace

PolicyDef
lruDef()
{
    return specDef("LRU", fastpath::lruSpec());
}

PolicyDef
lipDef()
{
    return specDef("LIP", fastpath::lipSpec());
}

PolicyDef
plruDef()
{
    return specDef("PLRU", fastpath::plruSpec());
}

PolicyDef
randomDef(uint64_t seed)
{
    return {"Random", [seed](const CacheConfig &cfg) {
                return std::unique_ptr<ReplacementPolicy>(
                    std::make_unique<RandomPolicy>(cfg, seed));
            },
            std::nullopt};
}

PolicyDef
fifoDef()
{
    return {"FIFO", [](const CacheConfig &cfg) {
                return std::unique_ptr<ReplacementPolicy>(
                    std::make_unique<FifoPolicy>(cfg));
            },
            std::nullopt};
}

PolicyDef
dipDef(uint64_t seed)
{
    return {"DIP", [seed](const CacheConfig &cfg) {
                return std::unique_ptr<ReplacementPolicy>(
                    std::make_unique<DipPolicy>(cfg, 32, 32, seed));
            },
            std::nullopt};
}

PolicyDef
srripDef()
{
    return specDef("SRRIP", fastpath::rripSpec(RripPolicy::Mode::Static));
}

PolicyDef
brripDef(uint64_t seed)
{
    return specDef("BRRIP", fastpath::rripSpec(RripPolicy::Mode::Bimodal,
                                               2, 32, 32, seed));
}

PolicyDef
drripDef(uint64_t seed)
{
    return specDef("DRRIP", fastpath::rripSpec(RripPolicy::Mode::Dynamic,
                                               2, 32, 32, seed));
}

PolicyDef
pdpDef()
{
    return specDef("PDP", fastpath::pdpSpec());
}

PolicyDef
shipDef()
{
    return {"SHiP", [](const CacheConfig &cfg) {
                return std::unique_ptr<ReplacementPolicy>(
                    std::make_unique<ShipPolicy>(cfg));
            },
            std::nullopt};
}

PolicyDef
giplrDef(const std::string &name, const Ipv &ipv)
{
    return specDef(name, fastpath::giplrSpec(ipv));
}

PolicyDef
gipprDef(const std::string &name, const Ipv &ipv)
{
    return specDef(name, fastpath::gipprSpec(ipv));
}

PolicyDef
dgipprDef(const std::string &name, std::vector<Ipv> ipvs,
          unsigned leaders)
{
    return specDef(name, fastpath::dgipprSpec(std::move(ipvs), leaders));
}

PolicyDef
bypassGipprDef(const std::string &name, const Ipv &ipv, uint64_t seed)
{
    return {name, [ipv, seed](const CacheConfig &cfg) {
                return std::unique_ptr<ReplacementPolicy>(
                    std::make_unique<BypassGipprPolicy>(cfg, ipv, 32,
                                                        32, 11, seed));
            },
            std::nullopt};
}

PolicyDef
rripIpvDef(const std::string &name, const Ipv &ipv)
{
    return specDef(name, fastpath::rripIpvSpec(ipv, 2));
}

PolicyDef
policyByName(const std::string &text)
{
    if (text == "LRU")
        return lruDef();
    if (text == "LIP")
        return lipDef();
    if (text == "PLRU")
        return plruDef();
    if (text == "GIPLR")
        return giplrDef("GIPLR", local_vectors::giplr());
    if (text == "GIPPR")
        return gipprDef("GIPPR", local_vectors::gippr());
    if (text == "Random")
        return randomDef();
    if (text == "FIFO")
        return fifoDef();
    if (text == "DIP")
        return dipDef();
    if (text == "SRRIP")
        return srripDef();
    if (text == "BRRIP")
        return brripDef();
    if (text == "DRRIP")
        return drripDef();
    if (text == "PDP")
        return pdpDef();
    if (text == "SHiP")
        return shipDef();
    if (text == "DGIPPR2")
        return dgipprDef("2-DGIPPR", local_vectors::dgippr2());
    if (text == "DGIPPR4")
        return dgipprDef("4-DGIPPR", local_vectors::dgippr4());
    if (text == "DGIPPR8")
        return dgipprDef("8-DGIPPR", local_vectors::dgippr8());
    if (text == "BGIPPR")
        return bypassGipprDef("B-GIPPR", local_vectors::gippr());
    if (text == "RRIPIPV")
        return rripIpvDef("RRIP-IPV", RripIpvPolicy::srripVector());
    auto colon = text.find(':');
    if (colon != std::string::npos) {
        std::string kind = text.substr(0, colon);
        Ipv ipv = Ipv::parse(text.substr(colon + 1));
        if (kind == "GIPLR")
            return giplrDef(text, ipv);
        if (kind == "GIPPR")
            return gipprDef(text, ipv);
        if (kind == "BGIPPR")
            return bypassGipprDef(text, ipv);
        if (kind == "RRIPIPV")
            return rripIpvDef(text, ipv);
    }
    fatal("unknown policy name: " + text);
}

fastpath::CounterBank
replayPolicy(const PolicyDef &policy, const CacheConfig &llc,
             const Trace &trace, size_t warmup,
             const fastpath::ReplayEngine &engine,
             telemetry::MetricRegistry *registry)
{
    const std::string prefix = "llc." + policy.name;
    if (policy.fastSpec) {
        const fastpath::ReplayStats stats =
            engine.replay(*policy.fastSpec, llc, trace, warmup);
        if (registry)
            mirrorTelemetry(*registry, prefix, stats);
        return stats.measured;
    }
    fastpath::ScalarModel model(llc, policy.make(llc));
    if (registry)
        model.attachTelemetry(*registry, prefix);
    return fastpath::replayInOrder(model, trace, warmup).measured;
}

} // namespace gippr
