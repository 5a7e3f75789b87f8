/**
 * @file
 * GA breeding primitives (paper, Section 4.2).
 *
 * evolveIpv's GA operators: tournament selection, single-point
 * crossover, one-element mutation, and the batched population
 * evaluation.  Each consumes the Rng in a fixed order, which is what
 * lets a run resumed from a GaCheckpoint (ga/ga_checkpoint.hh) draw
 * exactly the stream an uninterrupted run would have drawn and so
 * finish bit-identical to it.
 */

#ifndef GIPPR_GA_BREEDING_HH_
#define GIPPR_GA_BREEDING_HH_

#include <cstddef>
#include <vector>

#include "core/ipv.hh"
#include "ga/fitness.hh"
#include "ga/random_search.hh"
#include "telemetry/timer.hh"
#include "util/rng.hh"

namespace gippr
{

/**
 * Evaluate pop[from..] through the batched fitness API (one streaming
 * pass per trace per genome batch; see FitnessEvaluator::evaluateAll)
 * with @p threads workers.  Individuals before @p from — carried-over
 * elites — keep their fitness untouched.  Returns the wall-clock
 * seconds spent evaluating; @p timings (nullable) accumulates the
 * "ga_eval" phase.
 */
double evaluatePopulation(const FitnessEvaluator &fitness,
                          IpvFamily family,
                          std::vector<SampledIpv> &pop, size_t from,
                          unsigned threads,
                          telemetry::PhaseTimings *timings);

/** Sort best-first.  Not stable: equal-fitness order is whatever
    std::sort leaves, which is the same for the same input, so a
    resumed run still sorts exactly as an uninterrupted one. */
void sortByFitnessDesc(std::vector<SampledIpv> &pop);

/** Tournament selection: best of @p t random individuals. */
const SampledIpv &selectParent(const std::vector<SampledIpv> &pop,
                               unsigned t, Rng &rng);

/** Single-point crossover (paper: elements 0..k of one parent). */
Ipv crossover(const Ipv &a, const Ipv &b, Rng &rng);

/** With probability @p rate, replace one random element. */
Ipv mutate(Ipv v, double rate, unsigned ways, Rng &rng);

} // namespace gippr

#endif // GIPPR_GA_BREEDING_HH_
