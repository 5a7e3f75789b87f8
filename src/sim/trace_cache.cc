/**
 * @file
 * LlcTraceCache implementation.
 */

#include "sim/trace_cache.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/check.hh"
#include "util/rng.hh"

namespace gippr
{

namespace
{

/**
 * CPU records generated per chunk.  A chunk (64 KB) stays in the host's
 * caches between the generator writing it and the cascade reading it.
 */
constexpr size_t kChunkRecords = 2048;

/** Seconds of one simpoint's build, split by layer. */
struct BuildSeconds
{
    double generate = 0.0;
    double filter = 0.0;
};

/**
 * One simpoint's demand-only LLC trace: its generator streamed in
 * chunks through a fresh L1/L2 and an LlcRecorder that drops
 * writebacks.  The result equals
 * demandOnlyTrace(filterToLlc(materialize(...))) record for record,
 * without the CPU trace or the full LLC stream ever being held.
 * @p seconds receives the generator and cascade time.
 */
LlcTraceCache::Entry
streamSimpoint(const SimpointSpec &sp, const HierarchyConfig &hier,
               BuildSeconds &seconds)
{
    // Workload::addSimpoint's condition, which materializing checks.
    GIPPR_CHECK(sp.weight > 0.0);
    using Clock = std::chrono::steady_clock;
    using Seconds = std::chrono::duration<double>;

    const std::unique_ptr<AccessGenerator> gen = sp.make();
    Rng rng(sp.seed);
    Hierarchy cascade(hier);
    auto demand = std::make_shared<Trace>();
    demand->reserve(sp.accesses);
    LlcRecorder record(*demand, /*keep_writebacks=*/false);
    std::vector<MemRecord> chunk(kChunkRecords);
    uint64_t instructions = 0;
    for (uint64_t done = 0; done < sp.accesses;) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(kChunkRecords, sp.accesses - done));
        const Clock::time_point start = Clock::now();
        for (size_t i = 0; i < n; ++i)
            chunk[i] = gen->next(rng);
        const Clock::time_point generated = Clock::now();
        for (size_t i = 0; i < n; ++i) {
            instructions += chunk[i].instGap;
            record.addGap(chunk[i].instGap);
            cascade.access(chunk[i], record);
        }
        seconds.generate += Seconds(generated - start).count();
        seconds.filter += Seconds(Clock::now() - generated).count();
        done += n;
    }
    return {std::move(demand), instructions, sp.weight};
}

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
    auto entries = std::make_shared<Entries>();
    entries->reserve(spec.simpoints.size());
    std::vector<BuildSeconds> seconds(spec.simpoints.size());
    for (size_t i = 0; i < spec.simpoints.size(); ++i)
        entries->push_back(
            streamSimpoint(spec.simpoints[i], hier, seconds[i]));
    if (timings) {
        // One "materialize" per build and one "llc_filter" per
        // simpoint, the counts of the materialize-then-filter build.
        double generate = 0.0;
        for (const BuildSeconds &s : seconds)
            generate += s.generate;
        timings->record("materialize", generate);
        for (const BuildSeconds &s : seconds)
            timings->record("llc_filter", s.filter);
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
