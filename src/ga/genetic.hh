/**
 * @file
 * Genetic search for good IPVs (paper, Section 4.2).
 *
 * The paper's recipe: a large random initial population, single-point
 * crossover between mated vectors, a 5% chance of mutating one random
 * element per offspring, and fitness = mean estimated speedup over
 * LRU.  The paper runs populations of 20,000/4,000 seeded into a
 * pgapack run of 256 on a cluster for a day; this in-process version
 * keeps the same operators with tunable (much smaller) sizes and uses
 * threads instead of MPI.
 */

#ifndef GIPPR_GA_GENETIC_HH_
#define GIPPR_GA_GENETIC_HH_

#include <vector>

#include "core/ipv.hh"
#include "ga/fitness.hh"
#include "ga/random_search.hh"
#include "robust/checkpoint.hh"
#include "telemetry/progress.hh"
#include "telemetry/timer.hh"

namespace gippr
{

/** Genetic-algorithm knobs. */
struct GaParams
{
    /** Individuals in the first (seeding) generation. */
    size_t initialPopulation = 400;
    /** Individuals in subsequent generations. */
    size_t population = 120;
    /** Generations after the first. */
    unsigned generations = 25;
    /** Probability an offspring suffers one random-element mutation. */
    double mutationRate = 0.05;
    /** Individuals copied unchanged to the next generation. */
    size_t elites = 4;
    /** Tournament size for parent selection. */
    unsigned tournament = 3;
    /** Worker threads for fitness evaluation. */
    unsigned threads = 4;
    /** RNG seed. */
    uint64_t seed = 12345;
    /** Optional seed individuals injected into generation zero. */
    std::vector<Ipv> seedIpvs;
    /**
     * Optional telemetry (both may be null).  The sink receives one
     * event per generation (current/total, best fitness, eval
     * seconds); timings accumulates an "ga_eval" phase covering the
     * parallel fitness evaluations.
     */
    telemetry::ProgressSink *progress = nullptr;
    telemetry::PhaseTimings *timings = nullptr;
    /**
     * Crash safety: when checkpoint.path is set, the run saves a
     * versioned, checksummed checkpoint every checkpoint.every
     * generations (and at the final one); with checkpoint.resume an
     * existing checkpoint is loaded and the run continues from it,
     * producing results bit-identical to an uninterrupted run.  The
     * run also polls for graceful shutdown (robust/shutdown.hh) at
     * each generation boundary and, when requested, checkpoints and
     * returns early with GaResult::interrupted set.
     */
    robust::CheckpointOptions checkpoint;
};

/** Outcome of a GA run. */
struct GaResult
{
    Ipv best;
    double bestFitness = 0.0;
    /** Best fitness after each generation (convergence curve). */
    std::vector<double> history;
    /** Wall-clock seconds evaluating each generation (incl. gen 0). */
    std::vector<double> generationSeconds;
    /** The final population, best first (for dueling-set selection). */
    std::vector<SampledIpv> finalPopulation;
    /**
     * True when the run stopped early at a generation boundary
     * because shutdown was requested; best/history cover the
     * completed generations and the checkpoint on disk resumes the
     * rest.
     */
    bool interrupted = false;
    /** Generations skipped by resuming from a checkpoint. */
    unsigned resumedGenerations = 0;
};

/** Evolve an IPV for @p family against @p fitness. */
GaResult evolveIpv(const FitnessEvaluator &fitness, IpvFamily family,
                   const GaParams &params);

/**
 * Greedily choose @p n complementary vectors from candidates for a
 * DGIPPR duel: the first is the best overall; each subsequent pick
 * maximizes the mean of per-trace max speedup over the chosen set
 * (i.e. it covers the workloads the current set serves worst) —
 * standing in for the paper's "many parallel GA runs" vector farm.
 */
std::vector<Ipv> selectDuelSet(const FitnessEvaluator &fitness,
                               IpvFamily family,
                               const std::vector<Ipv> &candidates,
                               size_t n);

/**
 * The @p n-vector duel set of a finished run: selectDuelSet over the
 * top 24 of result.finalPopulation plus params.seedIpvs, so the
 * archetypes stay in contention even when evolution crowded them out.
 * A one-vector set is result.best.
 */
std::vector<Ipv> duelSetFromRun(const FitnessEvaluator &fitness,
                                IpvFamily family, const GaResult &result,
                                const GaParams &params, size_t n);

} // namespace gippr

#endif // GIPPR_GA_GENETIC_HH_
