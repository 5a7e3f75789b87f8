/**
 * @file
 * Genetic algorithm implementation.
 */

#include "ga/genetic.hh"

#include <algorithm>
#include <cstring>

#include "ga/breeding.hh"
#include "ga/ga_checkpoint.hh"
#include "ga/random_search.hh"
#include "util/check.hh"
#include "util/log.hh"
#include "util/stats.hh"

namespace gippr
{

namespace
{

/**
 * Digest of every parameter that shapes an evolveIpv run's results.
 * threads is deliberately excluded (the batched evaluation is
 * value-identical across thread counts); batch width and memo
 * capacity are included conservatively so a resumed run replays the
 * exact evaluation schedule of the interrupted one.
 */
uint64_t
evolveConfigDigest(const GaParams &params, IpvFamily family,
                   const FitnessEvaluator &fitness)
{
    uint64_t d = kDigestBasis;
    d = digestMix(d, 0x65766f6cULL); // "evol" tag
    d = digestMix(d, static_cast<uint64_t>(family));
    d = digestMix(d, params.seed);
    d = digestMix(d, params.initialPopulation);
    d = digestMix(d, params.population);
    d = digestMix(d, params.generations);
    uint64_t rate_bits;
    static_assert(sizeof(rate_bits) == sizeof(params.mutationRate));
    std::memcpy(&rate_bits, &params.mutationRate, sizeof(rate_bits));
    d = digestMix(d, rate_bits);
    d = digestMix(d, params.elites);
    d = digestMix(d, params.tournament);
    for (const Ipv &seed_ipv : params.seedIpvs)
        for (uint8_t e : seed_ipv.entries())
            d = digestMix(d, e);
    d = digestMix(d, fitness.batchWidth());
    d = digestMix(d, fitness.memoCapacity());
    return d;
}

} // namespace

GaResult
evolveIpv(const FitnessEvaluator &fitness, IpvFamily family,
          const GaParams &params)
{
    const unsigned ways = familyArity(family, fitness.llc());
    Rng rng(params.seed);

    const robust::CheckpointOptions &ckpt = params.checkpoint;
    const uint64_t config_digest =
        ckpt.enabled() ? evolveConfigDigest(params, family, fitness)
                       : 0;

    GaResult result;
    std::vector<SampledIpv> pop;
    unsigned done = 0; // generations completed after generation zero

    // A checkpoint captures the full generation-boundary state, so
    // restoring it and continuing is bit-identical to never having
    // stopped: the RNG stream, the sorted population (with carried
    // fitness) and the convergence history all pick up exactly where
    // the interrupted run left them.
    const auto save = [&](unsigned completed) {
        GaCheckpoint ck;
        ck.configDigest = config_digest;
        ck.suiteDigest = fitness.traceSetDigest();
        ck.rngState = rng.state();
        ck.generation = completed;
        ck.population = pop;
        ck.history = result.history;
        ck.generationSeconds = result.generationSeconds;
        saveGaCheckpoint(ckpt.path, ck);
    };

    bool resumed = false;
    if (ckpt.enabled() && ckpt.resume &&
        robust::checkpointExists(ckpt.path)) {
        GaCheckpoint ck = loadGaCheckpoint(ckpt.path, config_digest,
                                           fitness.traceSetDigest());
        rng.setState(ck.rngState);
        pop = std::move(ck.population);
        result.history = std::move(ck.history);
        result.generationSeconds = std::move(ck.generationSeconds);
        done = static_cast<unsigned>(ck.generation);
        result.resumedGenerations = done;
        resumed = true;
        inform("resumed GA run from " + ckpt.path + " at generation " +
               std::to_string(done) + "/" +
               std::to_string(params.generations));
    }

    if (!resumed) {
        // Generation zero: random individuals plus provided seeds.
        pop.reserve(params.initialPopulation + params.seedIpvs.size());
        for (const Ipv &seed_ipv : params.seedIpvs)
            pop.push_back({seed_ipv, 0.0});
        while (pop.size() < params.initialPopulation)
            pop.push_back({randomIpv(ways, rng), 0.0});
        double gen0_seconds = evaluatePopulation(
            fitness, family, pop, 0, params.threads, params.timings);
        sortByFitnessDesc(pop);

        result.history.push_back(pop.front().fitness);
        result.generationSeconds.push_back(gen0_seconds);
        if (params.progress) {
            params.progress->onProgress({"evolve", 0,
                                         params.generations + 1,
                                         pop.front().fitness,
                                         gen0_seconds});
        }
        if (ckpt.enabled())
            save(0);
    }

    for (unsigned g = done; g < params.generations; ++g) {
        if (ckpt.stopRequested()) {
            if (ckpt.enabled())
                save(g);
            result.interrupted = true;
            inform("GA run interrupted at generation " +
                   std::to_string(g) + "/" +
                   std::to_string(params.generations) +
                   (ckpt.enabled() ? "; checkpoint saved to " +
                                         ckpt.path
                                   : ""));
            break;
        }
        std::vector<SampledIpv> next;
        next.reserve(params.population);
        const size_t elites = std::min(params.elites, pop.size());
        for (size_t e = 0; e < elites; ++e)
            next.push_back(pop[e]);
        while (next.size() < params.population) {
            const SampledIpv &pa =
                selectParent(pop, params.tournament, rng);
            const SampledIpv &pb =
                selectParent(pop, params.tournament, rng);
            Ipv child = mutate(crossover(pa.ipv, pb.ipv, rng),
                               params.mutationRate, ways, rng);
            next.push_back({std::move(child), 0.0});
        }
        // Elites carry their fitness from the previous generation —
        // the replay is deterministic, so re-evaluating them could
        // only reproduce the same value.  Children start at the elite
        // cutoff.
        double gen_seconds =
            evaluatePopulation(fitness, family, next, elites,
                               params.threads, params.timings);
#if GIPPR_CHECKS_ENABLED
        // The memoized fitness function must agree exactly with the
        // value each elite carried in.
        for (size_t e = 0; e < elites; ++e) {
            GIPPR_CHECK(fitness.evaluate(next[e].ipv, family) ==
                        next[e].fitness);
        }
#endif
        sortByFitnessDesc(next);
        pop = std::move(next);
        result.history.push_back(pop.front().fitness);
        result.generationSeconds.push_back(gen_seconds);
        if (params.progress) {
            params.progress->onProgress({"evolve", g + 1,
                                         params.generations + 1,
                                         pop.front().fitness,
                                         gen_seconds});
        }
        if (ckpt.enabled() && ((g + 1) % std::max(1u, ckpt.every) == 0 ||
                               g + 1 == params.generations)) {
            save(g + 1);
        }
    }

    result.best = pop.front().ipv;
    result.bestFitness = pop.front().fitness;
    result.finalPopulation = std::move(pop);
    return result;
}

std::vector<Ipv>
selectDuelSet(const FitnessEvaluator &fitness, IpvFamily family,
              const std::vector<Ipv> &candidates, size_t n)
{
    if (candidates.empty())
        fatal("selectDuelSet: no candidate vectors");
    // Per-candidate, per-trace speedups in one batched call:
    // candidates drawn from the final population (or seeded into
    // generation zero) come straight out of the memo cache instead of
    // paying a full re-replay each.
    const std::vector<std::vector<double>> speedups =
        fitness.perTraceSpeedupsAll(candidates, family);

    const size_t traces = fitness.traceCount();
    std::vector<size_t> chosen;
    std::vector<bool> used(candidates.size(), false);
    std::vector<double> best_per_trace(traces, 0.0);

    while (chosen.size() < std::min(n, candidates.size())) {
        double best_gain = -1.0;
        size_t best_idx = 0;
        for (size_t c = 0; c < candidates.size(); ++c) {
            if (used[c])
                continue;
            double total = 0.0;
            for (size_t t = 0; t < traces; ++t)
                total += std::max(best_per_trace[t], speedups[c][t]);
            if (total > best_gain) {
                best_gain = total;
                best_idx = c;
            }
        }
        used[best_idx] = true;
        chosen.push_back(best_idx);
        for (size_t t = 0; t < traces; ++t)
            best_per_trace[t] =
                std::max(best_per_trace[t], speedups[best_idx][t]);
    }

    std::vector<Ipv> out;
    out.reserve(chosen.size());
    for (size_t idx : chosen)
        out.push_back(candidates[idx]);
    // If asked for more vectors than candidates, pad with the best.
    while (out.size() < n)
        out.push_back(out.front());
    return out;
}

std::vector<Ipv>
duelSetFromRun(const FitnessEvaluator &fitness, IpvFamily family,
               const GaResult &result, const GaParams &params, size_t n)
{
    if (n <= 1)
        return {result.best};
    constexpr size_t kPool = 24;
    std::vector<Ipv> pool;
    const size_t take = std::min(result.finalPopulation.size(), kPool);
    pool.reserve(take + params.seedIpvs.size());
    for (size_t i = 0; i < take; ++i)
        pool.push_back(result.finalPopulation[i].ipv);
    pool.insert(pool.end(), params.seedIpvs.begin(), params.seedIpvs.end());
    return selectDuelSet(fitness, family, pool, n);
}

} // namespace gippr
