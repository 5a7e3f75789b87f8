/**
 * @file
 * Named policy definitions shared by benches, examples and tests.
 *
 * A PolicyDef couples a display name with a factory that builds the
 * policy for any cache geometry, so an experiment can be described as
 * a list of PolicyDefs and run against any configuration.
 */

#ifndef GIPPR_SIM_POLICY_ZOO_HH_
#define GIPPR_SIM_POLICY_ZOO_HH_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ipv.hh"
#include "sim/fastpath/engine.hh"
#include "sim/fastpath/hierarchy.hh"
#include "sim/fastpath/replay_spec.hh"
#include "telemetry/metrics.hh"

namespace gippr
{

/** A named replacement policy usable at any geometry. */
struct PolicyDef
{
    std::string name;
    PolicyFactory make;
    /**
     * Value description for the replay engines; @c make then builds
     * this spec's scalar object.  The recency, tree and RRIP
     * families and PDP have one; policies without one (Random, FIFO,
     * DIP, B-GIPPR) always replay on the scalar simulator; see
     * replayPolicies().
     */
    std::optional<fastpath::ReplaySpec> fastSpec;
};

/** Baselines. */
PolicyDef lruDef();
PolicyDef lipDef();
PolicyDef plruDef();
PolicyDef randomDef(uint64_t seed = 1);
PolicyDef fifoDef();
PolicyDef dipDef(uint64_t seed = 1);
PolicyDef srripDef();
PolicyDef brripDef(uint64_t seed = 1);
PolicyDef drripDef(uint64_t seed = 1);
PolicyDef pdpDef();

/** IPV-driven policies.  @p name appears in result tables. */
PolicyDef giplrDef(const std::string &name, const Ipv &ipv);
PolicyDef gipprDef(const std::string &name, const Ipv &ipv);
PolicyDef dgipprDef(const std::string &name, std::vector<Ipv> ipvs,
                    unsigned leaders = 32);

/** Extensions (paper Section 7 future work). */
PolicyDef bypassGipprDef(const std::string &name, const Ipv &ipv,
                         uint64_t seed = 1);
PolicyDef rripIpvDef(const std::string &name, const Ipv &ipv);

/**
 * Parse a policy description string:
 *   "LRU", "LIP", "PLRU", "Random", "FIFO", "DIP", "SRRIP", "BRRIP",
 *   "DRRIP", "PDP",
 *   "GIPLR" / "GIPPR" (locally evolved 16-way vectors),
 *   "GIPLR:<v0 v1 ... vk>", "GIPPR:<...>",
 *   "DGIPPR2", "DGIPPR4", "DGIPPR8" (local vector sets).
 * Throws std::runtime_error for unknown names.
 */
PolicyDef policyByName(const std::string &text);

/**
 * Replay @p trace under every policy in @p policies on an @p llc
 * cache; records with index >= @p warmup are measured (the
 * replayTrace convention).  Every policy with a fastSpec replays in
 * one ReplayEngine::replayMany() pass through @p engine, so the trace
 * is decoded once for all of them; any other policy replays on a
 * SetAssocCache built by its factory.  With @p registry set, each
 * policy's whole-trace counters (and DGIPPR's duel state) land under
 * "llc.<name>.*" identically on either path.  Returns the measured
 * counters, index-aligned with @p policies.
 */
std::vector<fastpath::CounterBank>
replayPolicies(std::span<const PolicyDef> policies, const CacheConfig &llc,
               const Trace &trace, size_t warmup,
               const fastpath::ReplayEngine &engine,
               telemetry::MetricRegistry *registry = nullptr);

} // namespace gippr

#endif // GIPPR_SIM_POLICY_ZOO_HH_
