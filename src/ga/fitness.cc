/**
 * @file
 * Fitness function implementation.
 */

#include "ga/fitness.hh"

#include "util/check.hh"
#include "util/log.hh"
#include "util/parallel.hh"
#include "util/stats.hh"

namespace gippr
{

namespace
{

// FNV-1a, matching the suite-digest convention.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t
fnv1a(uint64_t h, const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
foldU64(uint64_t h, uint64_t v)
{
    return fnv1a(h, &v, sizeof v);
}

/** Content digest of one training trace (memo-key component). */
uint64_t
digestTrace(const FitnessTrace &t)
{
    uint64_t h = kFnvOffset;
    h = fnv1a(h, t.name.data(), t.name.size());
    h = foldU64(h, t.instructions);
    const Trace &tr = *t.llcTrace;
    h = foldU64(h, tr.size());
    for (const MemRecord &r : tr) {
        h = foldU64(h, r.addr);
        h = foldU64(h, (uint64_t{r.instGap} << 2) |
                           static_cast<uint64_t>(r.type));
    }
    return h;
}

/** Replay spec of @p ipv under @p family. */
fastpath::ReplaySpec
specFor(const Ipv &ipv, IpvFamily family)
{
    switch (family) {
      case IpvFamily::Giplr:
        return fastpath::giplrSpec(ipv);
      case IpvFamily::Gippr:
        return fastpath::gipprSpec(ipv);
      case IpvFamily::RripIpv:
        return fastpath::rripIpvSpec(ipv, 2);
    }
    fatal("specFor: unknown IPV family");
}

} // namespace

FitnessEvaluator::FitnessEvaluator(const CacheConfig &llc,
                                   std::vector<FitnessTrace> traces,
                                   CpiModel model,
                                   telemetry::PhaseTimings *timings,
                                   const fastpath::ReplayEngine *engine)
    : llc_(llc), traces_(std::move(traces)), model_(model),
      engine_(engine ? engine : &fastpath::defaultReplayEngine())
{
    if (traces_.empty())
        fatal("fitness evaluator needs at least one training trace");
    telemetry::ScopedTimer timer(timings, "fitness_baseline");
    lruMisses_.resize(traces_.size());
    std::vector<uint64_t> digests(traces_.size());
    const fastpath::ReplaySpec lru = fastpath::lruSpec();
    parallelFor(traces_.size(), resolveThreads(0), [&](size_t i) {
        lruMisses_[i] = engine_
                            ->replay(lru, llc_, *traces_[i].llcTrace,
                                     warmupOf(i))
                            .measured.demandMisses;
        digests[i] = digestTrace(traces_[i]);
    });
    uint64_t h = kFnvOffset;
    for (uint64_t d : digests)
        h = foldU64(h, d);
    // Fold the LLC geometry in too: the same training traces replayed
    // at a different cache shape yield different miss counts, so two
    // evaluators differing only in geometry must not share memo hits.
    h = foldU64(h, llc_.sizeBytes);
    h = foldU64(h, llc_.assoc);
    h = foldU64(h, llc_.blockBytes);
    traceDigest_ = h;
}

void
FitnessEvaluator::setBatchWidth(unsigned genomes)
{
    batchWidth_ = genomes == 0 ? 1 : genomes;
}

void
FitnessEvaluator::setMemoCapacity(size_t entries)
{
    std::lock_guard<std::mutex> lock(memoMu_);
    memoCapacity_ = entries;
    if (memo_.size() > memoCapacity_)
        memo_.clear();
}

std::string
FitnessEvaluator::memoKey(const Ipv &ipv, IpvFamily family) const
{
    const std::vector<uint8_t> &e = ipv.entries();
    std::string key;
    key.reserve(1 + sizeof(traceDigest_) + e.size());
    key.push_back(static_cast<char>(family));
    key.append(reinterpret_cast<const char *>(&traceDigest_),
               sizeof(traceDigest_));
    key.append(reinterpret_cast<const char *>(e.data()), e.size());
    return key;
}

size_t
FitnessEvaluator::warmupOf(size_t idx) const
{
    // First third warms the cache, as in the paper's 500M/1.5B split.
    return traces_[idx].llcTrace->size() / 3;
}

double
FitnessEvaluator::estimateCpi(uint64_t misses,
                              uint64_t instructions) const
{
    if (instructions == 0)
        return model_.baseCpi;
    return model_.baseCpi + model_.missPenalty *
                                static_cast<double>(misses) /
                                static_cast<double>(instructions);
}

std::vector<std::vector<uint64_t>>
FitnessEvaluator::missesForAll(std::span<const Ipv> ipvs,
                               IpvFamily family, unsigned threads) const
{
    std::vector<std::vector<uint64_t>> out(ipvs.size());
    if (ipvs.empty())
        return out;
    const size_t n_traces = traces_.size();

    // Memo lookups plus within-call dedup: duplicate vectors (cloned
    // children, repeated candidates) map onto one work slot.
    std::vector<std::string> keys(ipvs.size());
    for (size_t i = 0; i < ipvs.size(); ++i)
        keys[i] = memoKey(ipvs[i], family);
    std::vector<size_t> slotOf(ipvs.size(), SIZE_MAX);
    std::vector<size_t> work; // input index of each unique slot
    {
        std::unordered_map<std::string, size_t> pending;
        std::lock_guard<std::mutex> lock(memoMu_);
        for (size_t i = 0; i < ipvs.size(); ++i) {
            if (memoCapacity_ != 0) {
                const auto hit = memo_.find(keys[i]);
                if (hit != memo_.end()) {
                    out[i] = hit->second;
                    if (memoHits_)
                        memoHits_->increment();
                    continue;
                }
                if (memoMisses_)
                    memoMisses_->increment();
            }
            const auto [slot, inserted] =
                pending.emplace(keys[i], work.size());
            if (inserted)
                work.push_back(i);
            slotOf[i] = slot->second;
        }
    }
    if (work.empty())
        return out;

    // Replay the unique vectors: batched genome-major streams, up to
    // batchWidth_ genomes per (group, trace) work item.
    std::vector<std::vector<uint64_t>> computed(
        work.size(), std::vector<uint64_t>(n_traces, 0));
    const size_t width = std::max(1u, batchWidth_);
    const size_t groups = (work.size() + width - 1) / width;
    parallelFor(
        groups * n_traces, resolveThreads(threads), [&](size_t item) {
            const size_t g = item / n_traces;
            const size_t t = item % n_traces;
            const size_t lo = g * width;
            const size_t hi = std::min(work.size(), lo + width);
            std::vector<fastpath::ReplaySpec> specs;
            specs.reserve(hi - lo);
            for (size_t u = lo; u < hi; ++u)
                specs.push_back(specFor(ipvs[work[u]], family));
            const std::vector<fastpath::ReplayStats> stats =
                engine_->replayMany(specs, llc_, *traces_[t].llcTrace,
                                    warmupOf(t));
            for (size_t u = lo; u < hi; ++u)
                computed[u][t] = stats[u - lo].measured.demandMisses;
            // replayMany sends a lone spec to replay(): only groups
            // of two or more count as batched.
            if (batchReplays_ && hi - lo > 1)
                batchReplays_->increment(hi - lo);
        });
    if (replays_)
        replays_->increment(work.size() * n_traces);

    if (memoCapacity_ != 0) {
        std::lock_guard<std::mutex> lock(memoMu_);
        for (size_t u = 0; u < work.size(); ++u) {
            if (memo_.size() >= memoCapacity_)
                break;
            memo_.emplace(keys[work[u]], computed[u]);
        }
    }
    for (size_t i = 0; i < ipvs.size(); ++i) {
        if (slotOf[i] != SIZE_MAX)
            out[i] = computed[slotOf[i]];
    }
    return out;
}

std::vector<double>
FitnessEvaluator::speedupsFromMisses(
    const std::vector<uint64_t> &misses) const
{
    std::vector<double> speedups;
    speedups.reserve(traces_.size());
    for (size_t i = 0; i < traces_.size(); ++i) {
        // Measured instructions: 2/3 of the segment (post-warmup).
        const uint64_t inst = traces_[i].instructions * 2 / 3;
        const double cpi_lru = estimateCpi(lruMisses_[i], inst);
        const double cpi_ipv = estimateCpi(misses[i], inst);
        speedups.push_back(cpi_lru / cpi_ipv);
    }
    return speedups;
}

std::vector<std::vector<double>>
FitnessEvaluator::perTraceSpeedupsAll(std::span<const Ipv> ipvs,
                                      IpvFamily family,
                                      unsigned threads) const
{
    const std::vector<std::vector<uint64_t>> misses =
        missesForAll(ipvs, family, threads);
    std::vector<std::vector<double>> out;
    out.reserve(ipvs.size());
    for (const std::vector<uint64_t> &row : misses)
        out.push_back(speedupsFromMisses(row));
    return out;
}

std::vector<double>
FitnessEvaluator::evaluateAll(std::span<const Ipv> ipvs,
                              IpvFamily family, unsigned threads) const
{
    if (evaluations_)
        evaluations_->increment(ipvs.size());
    std::vector<double> out;
    out.reserve(ipvs.size());
    for (const std::vector<double> &row :
         perTraceSpeedupsAll(ipvs, family, threads))
        out.push_back(mean(row));
    return out;
}

uint64_t
FitnessEvaluator::lruMisses(size_t idx) const
{
    GIPPR_CHECK(idx < lruMisses_.size());
    return lruMisses_[idx];
}

std::vector<double>
FitnessEvaluator::perTraceSpeedups(const Ipv &ipv,
                                   IpvFamily family) const
{
    // Route through the memoized batch path (a batch of one) so
    // repeated queries — carried-over elites, duel-set candidates —
    // reuse prior replays; threads stay at 1 because callers already
    // run this from worker threads.
    return perTraceSpeedupsAll(std::span<const Ipv>(&ipv, 1), family, 1)
        .front();
}

double
FitnessEvaluator::evaluate(const Ipv &ipv, IpvFamily family) const
{
    if (evaluations_)
        evaluations_->increment();
    return mean(perTraceSpeedups(ipv, family));
}

void
FitnessEvaluator::attachTelemetry(telemetry::MetricRegistry &registry,
                                  const std::string &prefix)
{
    evaluations_ = &registry.counter(prefix + ".evaluations");
    replays_ = &registry.counter(prefix + ".replays");
    batchReplays_ = &registry.counter(prefix + ".batch_replays");
    memoHits_ = &registry.counter(prefix + ".memo_hits");
    memoMisses_ = &registry.counter(prefix + ".memo_misses");
}

unsigned
familyArity(IpvFamily family, const CacheConfig &llc)
{
    switch (family) {
      case IpvFamily::Giplr:
      case IpvFamily::Gippr:
        return llc.assoc;
      case IpvFamily::RripIpv:
        return 4; // 2-bit RRPVs
    }
    return llc.assoc;
}

std::vector<FitnessTrace>
buildFitnessTraces(const std::vector<Workload> &workloads,
                   const HierarchyConfig &hier)
{
    std::vector<FitnessTrace> out;
    for (const Workload &w : workloads) {
        for (size_t s = 0; s < w.simpoints().size(); ++s) {
            const Simpoint &sp = w.simpoints()[s];
            FitnessTrace ft;
            ft.name = w.name() + "/" + std::to_string(s);
            ft.llcTrace = std::make_shared<Trace>(
                Hierarchy::filterToLlc(*sp.trace, hier));
            ft.instructions = sp.trace->instructions();
            out.push_back(std::move(ft));
        }
    }
    return out;
}

} // namespace gippr
