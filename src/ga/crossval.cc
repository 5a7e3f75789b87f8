/**
 * @file
 * Cross-validation implementation.
 */

#include "ga/crossval.hh"

#include <cctype>
#include <cstring>

#include "ga/ga_checkpoint.hh"
#include "util/log.hh"
#include "util/parallel.hh"

namespace gippr
{

namespace
{

/**
 * Run one GA fold and pick its duel set.
 *
 * Both stages share the fold's FitnessEvaluator, so the batched
 * evaluations inside evolveIpv warm its memo cache and the duel-set
 * candidates (drawn from the final population and the seeds) are
 * scored without a single extra replay.  Throws robust::Interrupted
 * when the inner GA stopped early for shutdown (its checkpoint is
 * already on disk).
 */
std::vector<Ipv>
evolveAndSelect(const FitnessEvaluator &fitness, IpvFamily family,
                size_t n_vectors, const GaParams &params)
{
    GaResult ga = evolveIpv(fitness, family, params);
    if (ga.interrupted)
        throw robust::Interrupted(
            "GA fold interrupted; checkpoint saved to " +
            params.checkpoint.path);
    return duelSetFromRun(fitness, family, ga, params, n_vectors);
}

/** Digest of every parameter that shapes an evolveWn1 run. */
uint64_t
wn1ConfigDigest(const std::vector<WorkloadTraces> &workloads,
                IpvFamily family, size_t n_vectors,
                const GaParams &params)
{
    uint64_t d = kDigestBasis;
    d = digestMix(d, 0x776e3163ULL); // "wn1c" tag
    d = digestMix(d, static_cast<uint64_t>(family));
    d = digestMix(d, n_vectors);
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
    // The seeds join every fold's population and duel-set pool, so a
    // completed fold's vectors depend on them.
    for (const Ipv &seed_ipv : params.seedIpvs)
        for (uint8_t e : seed_ipv.entries())
            d = digestMix(d, e);
    for (const auto &w : workloads) {
        for (char c : w.name)
            d = digestMix(d, static_cast<unsigned char>(c));
        d = digestMix(d, w.traces.size());
    }
    return d;
}

/** Workload name -> filesystem-safe checkpoint-path fragment. */
std::string
sanitizeFoldName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name)
        out.push_back(
            std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    return out;
}

} // namespace

std::vector<WorkloadTraces>
fitnessWorkloads(const SyntheticSuite &suite,
                 const std::vector<std::string> &names,
                 const HierarchyConfig &hier)
{
    const std::vector<std::string> selected =
        names.empty() ? suite.names() : names;
    // The workloads are independent; each slot keeps input order.
    std::vector<WorkloadTraces> out(selected.size());
    parallelFor(selected.size(), resolveThreads(0), [&](size_t i) {
        std::vector<Workload> single;
        single.push_back(SyntheticSuite::materialize(suite.spec(selected[i])));
        out[i].name = selected[i];
        out[i].traces = buildFitnessTraces(single, hier);
    });
    return out;
}

std::vector<FitnessTrace>
flattenExcept(const std::vector<WorkloadTraces> &workloads,
              const std::string &skip)
{
    std::vector<FitnessTrace> out;
    for (const auto &w : workloads) {
        if (w.name == skip)
            continue;
        out.insert(out.end(), w.traces.begin(), w.traces.end());
    }
    return out;
}

std::vector<Ipv>
evolveWi(const CacheConfig &llc,
         const std::vector<WorkloadTraces> &workloads, IpvFamily family,
         size_t n_vectors, const GaParams &params)
{
    if (workloads.empty())
        fatal("evolveWi: no workloads");
    FitnessEvaluator fitness(llc, flattenExcept(workloads, ""), {},
                             params.timings);
    return evolveAndSelect(fitness, family, n_vectors, params);
}

Wn1Vectors
evolveWn1(const CacheConfig &llc,
          const std::vector<WorkloadTraces> &workloads, IpvFamily family,
          size_t n_vectors, const GaParams &params)
{
    if (workloads.size() < 2)
        fatal("evolveWn1 needs at least two workloads");

    // Crash safety: params.checkpoint.path names the fold-progress
    // file (a Wn1Checkpoint of completed folds' duel sets); each
    // fold's inner GA checkpoints at path + ".fold-<name>".  A
    // resumed run skips completed folds outright and resumes the
    // in-progress fold from its GA checkpoint, so the returned map is
    // bit-identical to an uninterrupted run's.
    const robust::CheckpointOptions &ckpt = params.checkpoint;
    const uint64_t config_digest =
        ckpt.enabled()
            ? wn1ConfigDigest(workloads, family, n_vectors, params)
            : 0;
    Wn1Checkpoint done_folds;
    done_folds.configDigest = config_digest;
    if (ckpt.enabled() && ckpt.resume &&
        robust::checkpointExists(ckpt.path)) {
        done_folds = loadWn1Checkpoint(ckpt.path, config_digest);
        inform("resumed WN1 run from " + ckpt.path + " with " +
               std::to_string(done_folds.folds.size()) + "/" +
               std::to_string(workloads.size()) +
               " folds complete");
    }
    const auto completedFold =
        [&](const std::string &name)
        -> const std::vector<std::vector<uint8_t>> * {
        for (const auto &[n, vectors] : done_folds.folds)
            if (n == name)
                return &vectors;
        return nullptr;
    };

    Wn1Vectors out;
    unsigned fold = 0;
    for (const auto &held_out : workloads) {
        if (ckpt.enabled()) {
            if (const auto *vectors = completedFold(held_out.name)) {
                std::vector<Ipv> ipvs;
                ipvs.reserve(vectors->size());
                for (const auto &entries : *vectors)
                    ipvs.emplace_back(entries);
                out[held_out.name] = std::move(ipvs);
                ++fold;
                continue;
            }
            if (ckpt.stopRequested()) {
                saveWn1Checkpoint(ckpt.path, done_folds);
                throw robust::Interrupted(
                    "WN1 run interrupted before fold \"" +
                    held_out.name + "\"; checkpoint saved to " +
                    ckpt.path);
            }
        }
        FitnessEvaluator fitness(
            llc, flattenExcept(workloads, held_out.name), {},
            params.timings);
        GaParams fold_params = params;
        fold_params.seed = params.seed + 0x9e37 * (fold + 1);
        if (ckpt.enabled())
            fold_params.checkpoint.path =
                ckpt.path + ".fold-" + sanitizeFoldName(held_out.name);
        std::vector<Ipv> vectors =
            evolveAndSelect(fitness, family, n_vectors, fold_params);
        if (ckpt.enabled()) {
            std::vector<std::vector<uint8_t>> raw;
            raw.reserve(vectors.size());
            for (const Ipv &v : vectors)
                raw.push_back(v.entries());
            done_folds.folds.emplace_back(held_out.name,
                                          std::move(raw));
            saveWn1Checkpoint(ckpt.path, done_folds);
        }
        out[held_out.name] = std::move(vectors);
        inform("WN1 fold complete: " + held_out.name);
        ++fold;
    }
    return out;
}

} // namespace gippr
