/**
 * @file
 * The scalar twin of SoaCacheModel.
 *
 * ScalarModel is the production SetAssocCache and a policy object
 * behind SoaCacheModel's per-access interface.  Every replay loop —
 * the replay engines' in-order loop (replayInOrder), the CPU walk of
 * simulateTrace, the shared LLC and the selector's chunk loop — is
 * one template over the two models.  The two share no state layout,
 * which is what makes the scalar-versus-packed oracles meaningful.
 */

#ifndef GIPPR_SIM_FASTPATH_SCALAR_MODEL_HH_
#define GIPPR_SIM_FASTPATH_SCALAR_MODEL_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "sim/fastpath/replay_spec.hh"
#include "sim/fastpath/soa_cache.hh"
#include "telemetry/metrics.hh"

namespace gippr::fastpath
{

/** SetAssocCache + a policy object, shaped like SoaCacheModel. */
class ScalarModel
{
  public:
    using Step = SoaCacheModel::Step;

    /** makeScalarPolicy(@p spec, @p config, @p domains); reports the
     *  spec's duel state. */
    ScalarModel(const ReplaySpec &spec, const CacheConfig &config,
                unsigned domains = 1);

    /** Any policy object (PolicyDef::make, a PolicyFactory); reports
     *  no duel state. */
    ScalarModel(const CacheConfig &config,
                std::unique_ptr<ReplacementPolicy> policy);

    Step access(uint64_t set, uint64_t tag, AccessType type);

    /** Shared-LLC access in duel domain @p domain, filling within
     *  @p mask (SetAssocCache::access's domain and way mask). */
    Step access(uint64_t set, uint64_t tag, AccessType type,
                unsigned domain, uint64_t mask);

    /** Access by byte address; the policy sees @p pc. */
    Step accessAddr(uint64_t byte_addr, AccessType type, uint64_t pc);

    /** Start the measured region (SoaCacheModel::markWarmup). */
    void markWarmup();

    /** Statistics so far, with the first duel domain's state. */
    ReplayStats stats() const;

    /** Duel domain @p domain's state into @p out (scalarDuelStats). */
    void duelStats(unsigned domain, ReplayStats &out) const;

    /** The measured region as CacheStats, bypasses included. */
    const CacheStats &cacheStats() const { return cache_.stats(); }

    /** Mirror the cache's and policy's events into @p registry under
     *  @p prefix (SetAssocCache::attachTelemetry). */
    void attachTelemetry(telemetry::MetricRegistry &registry,
                         const std::string &prefix);

    uint64_t sets() const { return cache_.config().sets(); }
    unsigned assoc() const { return cache_.config().assoc; }
    uint64_t setIndex(uint64_t byte_addr) const
    {
        return decode_.setIndex(byte_addr);
    }
    uint64_t tagOf(uint64_t byte_addr) const
    {
        return decode_.tag(byte_addr);
    }

  private:
    Step stepOf(const AccessResult &r) const;

    std::optional<ReplaySpec> spec_;
    AddressDecode decode_;
    SetAssocCache cache_;
    /** Counters up to the last markWarmup (the cache's own restart
     *  there, so cacheStats() is the measured region). */
    CounterBank warm_;
};

} // namespace gippr::fastpath

#endif // GIPPR_SIM_FASTPATH_SCALAR_MODEL_HH_
