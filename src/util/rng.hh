/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the simulator (synthetic workload
 * generators, the Random replacement policy, BRRIP's bimodal throttle,
 * the genetic algorithm) draw from an explicitly seeded Rng so that
 * every experiment is reproducible run-to-run and across machines.
 * The engine is xoshiro256** (public domain, Blackman & Vigna), seeded
 * through SplitMix64.
 */

#ifndef GIPPR_UTIL_RNG_HH_
#define GIPPR_UTIL_RNG_HH_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gippr
{

/** xoshiro256** engine with convenience distributions. */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Reseed in place. */
    void seed(uint64_t seed);

    /** Raw 64 random bits. */
    uint64_t next();

    /** UniformRandomBitGenerator interface. */
    uint64_t operator()() { return next(); }
    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~uint64_t{0}; }

    /** Uniform integer in [0, bound).  @pre bound > 0 */
    uint64_t nextBounded(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive.  @pre lo <= hi */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability @p p of returning true. */
    bool nextBool(double p = 0.5);

    /**
     * Geometric number of failures before first success,
     * success probability @p p.  @pre 0 < p <= 1
     * A caller drawing many times with one @p p holds a
     * GeometricDist instead, which draws the same values.
     */
    uint64_t nextGeometric(double p);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = nextBounded(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Split off an independent child stream (for parallel search). */
    Rng split();

    /**
     * Raw engine state, for checkpointing: setState(state()) resumes
     * the stream exactly where it left off.  setState rejects the
     * all-zero state (invalid for xoshiro256**).
     */
    std::array<uint64_t, 4> state() const;
    void setState(const std::array<uint64_t, 4> &state);

  private:
    uint64_t s_[4];
};

/**
 * The geometric distribution of Rng::nextGeometric with its success
 * probability fixed, so the log1p(-p) denominator is computed once
 * rather than per draw.  The draw divides by that same double, so
 * sample(rng) returns bit for bit what rng.nextGeometric(p) would.
 */
class GeometricDist
{
  public:
    /** @pre 0 < p <= 1 */
    explicit GeometricDist(double p);

    /** Failures before the first success; draws nothing when p == 1. */
    uint64_t sample(Rng &rng) const;

  private:
    /** log1p(-p); 0 when p == 1, which always succeeds. */
    double logFail_;
};

/**
 * Zipf-distributed integer sampler over [0, n) with exponent theta.
 *
 * Uses the rejection-inversion method of Hörmann & Derflinger, which
 * needs O(1) time per sample and no O(n) table, so it is usable for
 * address spaces of millions of blocks.
 */
class ZipfSampler
{
  public:
    /**
     * @param n      number of items (ranks 0..n-1, rank 0 most popular)
     * @param theta  skew; 0 = uniform, ~0.99 = classic YCSB-style skew
     */
    ZipfSampler(uint64_t n, double theta);

    /** Draw one rank. */
    uint64_t sample(Rng &rng) const;

    uint64_t n() const { return n_; }
    double theta() const { return theta_; }

  private:
    double h(double x) const;
    double hInv(double x) const;

    uint64_t n_;
    double theta_;
    double hImaxPlus1_;
    double hX0_;
    double s_;
};

} // namespace gippr

#endif // GIPPR_UTIL_RNG_HH_
