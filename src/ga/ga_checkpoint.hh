/**
 * @file
 * Checkpoint payloads for the search drivers.
 *
 * Each driver (evolveIpv, randomSearch, hillClimb, evolveWn1) defines
 * a payload carrying exactly the state needed to resume at its next
 * clean boundary and produce a run *bit-identical* to an
 * uninterrupted one: the RNG engine state, the sorted population with
 * fitness values as IEEE-754 bit patterns, and progress counters.
 * Payloads travel inside the checksummed robust/checkpoint.hh
 * envelope; loads additionally validate two digests —
 *
 *   suiteDigest   FNV-1a over the training traces
 *                 (FitnessEvaluator::traceSetDigest), so a checkpoint
 *                 can never silently resume against different
 *                 training data;
 *   configDigest  FNV-1a over every search parameter that shapes the
 *                 run (seed, population sizes, operators, seed IPVs,
 *                 batch/memo configuration), so a checkpoint can
 *                 never resume under a different configuration.
 *
 * Any mismatch is a clear std::runtime_error, never a crash and never
 * a silent restart.
 */

#ifndef GIPPR_GA_GA_CHECKPOINT_HH_
#define GIPPR_GA_GA_CHECKPOINT_HH_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ga/random_search.hh"

namespace gippr
{

/** FNV-1a step over one 64-bit word (digest building block). */
uint64_t digestMix(uint64_t digest, uint64_t word);

/** FNV-1a offset basis (digest seed). */
constexpr uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

/** State of an evolveIpv run at a generation boundary. */
struct GaCheckpoint
{
    uint64_t configDigest = 0;
    uint64_t suiteDigest = 0;
    std::array<uint64_t, 4> rngState{};
    /** Generations completed after generation zero. */
    uint64_t generation = 0;
    /** Population, sorted best-first, with carried fitness. */
    std::vector<SampledIpv> population;
    std::vector<double> history;
    std::vector<double> generationSeconds;
};

void saveGaCheckpoint(const std::string &path, const GaCheckpoint &ck);

/**
 * Load and validate an evolveIpv checkpoint.  Throws
 * std::runtime_error when the file is corrupt, a different format
 * version, or was written for a different suite/configuration.
 */
GaCheckpoint loadGaCheckpoint(const std::string &path,
                              uint64_t configDigest,
                              uint64_t suiteDigest);

/** State of a randomSearch run at a chunk boundary. */
struct RandomSearchCheckpoint
{
    uint64_t configDigest = 0;
    uint64_t suiteDigest = 0;
    /** Samples evaluated so far (prefix of the deterministic draw). */
    uint64_t done = 0;
    /** scores[0..done): fitness per sample, in draw order. */
    std::vector<double> scores;
};

void saveRandomSearchCheckpoint(const std::string &path,
                                const RandomSearchCheckpoint &ck);
RandomSearchCheckpoint
loadRandomSearchCheckpoint(const std::string &path,
                           uint64_t configDigest, uint64_t suiteDigest);

/** State of a hillClimb run at an accepted-move boundary. */
struct HillClimbCheckpoint
{
    uint64_t configDigest = 0;
    uint64_t suiteDigest = 0;
    std::vector<uint8_t> best;
    double bestFitness = 0.0;
    uint64_t evaluations = 0;
    uint64_t steps = 0;
};

void saveHillClimbCheckpoint(const std::string &path,
                             const HillClimbCheckpoint &ck);
HillClimbCheckpoint
loadHillClimbCheckpoint(const std::string &path, uint64_t configDigest,
                        uint64_t suiteDigest);

/** Completed folds of an evolveWn1 run. */
struct Wn1Checkpoint
{
    uint64_t configDigest = 0;
    /** Fold name -> selected duel-set vectors (raw IPV entries). */
    std::vector<std::pair<std::string, std::vector<std::vector<uint8_t>>>>
        folds;
};

void saveWn1Checkpoint(const std::string &path, const Wn1Checkpoint &ck);
Wn1Checkpoint loadWn1Checkpoint(const std::string &path,
                                uint64_t configDigest);

} // namespace gippr

#endif // GIPPR_GA_GA_CHECKPOINT_HH_
