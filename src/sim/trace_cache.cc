/**
 * @file
 * LlcTraceCache implementation.
 */

#include "sim/trace_cache.hh"

#include <cstdio>

#include "cache/replay.hh"

namespace gippr
{

namespace
{

void
appendGeometry(std::string &key, const CacheConfig &config)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "|%llu/%u/%u",
                  static_cast<unsigned long long>(config.sizeBytes),
                  config.assoc, config.blockBytes);
    key += buf;
}

} // namespace

std::string
LlcTraceCache::keyOf(const WorkloadSpec &spec, const HierarchyConfig &hier)
{
    std::string key = spec.name;
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "@%llu",
                      static_cast<unsigned long long>(spec.capacityBlocks));
        key += buf;
    }
    for (const SimpointSpec &sp : spec.simpoints) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "|%llu:%llu:%.17g",
                      static_cast<unsigned long long>(sp.seed),
                      static_cast<unsigned long long>(sp.accesses),
                      sp.weight);
        key += buf;
    }
    appendGeometry(key, hier.l1);
    appendGeometry(key, hier.l2);
    appendGeometry(key, hier.llc);
    return key;
}

std::shared_ptr<const LlcTraceCache::Entries>
LlcTraceCache::get(const WorkloadSpec &spec, const HierarchyConfig &hier,
                   telemetry::PhaseTimings *timings)
{
    const std::string key = keyOf(spec, hier);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
    }

    // Build outside the lock so concurrent workers make progress; a
    // rare duplicate build for the same key is benign (the first
    // published entry wins and both are equivalent).
    telemetry::ScopedTimer materialize_timer(timings, "materialize");
    const Workload workload = SyntheticSuite::materialize(spec);
    materialize_timer.stop();

    auto entries = std::make_shared<Entries>();
    entries->reserve(workload.simpoints().size());
    for (const Simpoint &sp : workload.simpoints()) {
        telemetry::ScopedTimer filter_timer(timings, "llc_filter");
        auto demand = std::make_shared<const Trace>(demandOnlyTrace(
            Hierarchy::filterToLlc(*sp.trace, hier)));
        filter_timer.stop();
        entries->push_back(
            {std::move(demand), sp.trace->instructions(), sp.weight});
    }

    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = map_.emplace(key, std::move(entries));
    (void)inserted;
    return it->second;
}

uint64_t
LlcTraceCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

uint64_t
LlcTraceCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

} // namespace gippr
