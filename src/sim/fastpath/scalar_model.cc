/**
 * @file
 * ScalarModel implementation.
 */

#include "sim/fastpath/scalar_model.hh"

namespace gippr::fastpath
{

ScalarModel::ScalarModel(const ReplaySpec &spec, const CacheConfig &config,
                         unsigned domains)
    : spec_(spec), decode_(config),
      cache_(config, makeScalarPolicy(spec, config, domains))
{
}

ScalarModel::ScalarModel(const CacheConfig &config,
                         std::unique_ptr<ReplacementPolicy> policy)
    : decode_(config), cache_(config, std::move(policy))
{
}

ScalarModel::Step
ScalarModel::access(uint64_t set, uint64_t tag, AccessType type)
{
    return stepOf(cache_.access(
        decode_.blockOf(set, tag) << decode_.blockShift, type));
}

ScalarModel::Step
ScalarModel::access(uint64_t set, uint64_t tag, AccessType type,
                    unsigned domain, uint64_t mask)
{
    return stepOf(
        cache_.access(decode_.blockOf(set, tag) << decode_.blockShift,
                      type, domain, mask));
}

ScalarModel::Step
ScalarModel::accessAddr(uint64_t byte_addr, AccessType type)
{
    return stepOf(cache_.access(byte_addr, type));
}

ScalarModel::Step
ScalarModel::stepOf(const AccessResult &r) const
{
    Step step;
    step.hit = r.hit;
    step.way = r.way;
    if (r.evictedBlock) {
        step.evicted = true;
        step.evictedDirty = r.evictedDirty;
        step.evictedTag = *r.evictedBlock >> decode_.setShift;
    }
    return step;
}

void
ScalarModel::markWarmup()
{
    warm_ += toBank(cache_.stats());
    cache_.clearStats();
}

ReplayStats
ScalarModel::stats() const
{
    ReplayStats s;
    s.measured = toBank(cache_.stats());
    s.total = warm_;
    s.total += s.measured;
    duelStats(0, s);
    return s;
}

void
ScalarModel::duelStats(unsigned domain, ReplayStats &out) const
{
    if (spec_)
        scalarDuelStats(*spec_, cache_.policy(), domain, out);
}

void
ScalarModel::attachTelemetry(telemetry::MetricRegistry &registry,
                             const std::string &prefix)
{
    cache_.attachTelemetry(registry, prefix);
}

} // namespace gippr::fastpath
