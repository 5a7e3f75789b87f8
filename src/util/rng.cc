/**
 * @file
 * xoshiro256** engine and Zipf sampler implementations.
 */

#include "util/check.hh"
#include "util/rng.hh"

#include <cmath>

namespace gippr
{

namespace
{

/** SplitMix64 step, used only for seeding. */
uint64_t
splitMix64(uint64_t &x)
{
    uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(uint64_t seed_value)
{
    uint64_t sm = seed_value;
    for (auto &word : s_)
        word = splitMix64(sm);
    // xoshiro256** must not be seeded with all-zero state; SplitMix64
    // cannot produce four zero outputs in a row, so assert only.
    GIPPR_CHECK(s_[0] || s_[1] || s_[2] || s_[3]);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

uint64_t
Rng::nextBounded(uint64_t bound)
{
    GIPPR_CHECK(bound > 0);
    // Debiased modulo via rejection on the low range.
    const uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

int64_t
Rng::nextRange(int64_t lo, int64_t hi)
{
    GIPPR_CHECK(lo <= hi);
    return lo + static_cast<int64_t>(
        nextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

uint64_t
Rng::nextGeometric(double p)
{
    return GeometricDist(p).sample(*this);
}

GeometricDist::GeometricDist(double p)
    : logFail_(p >= 1.0 ? 0.0 : std::log1p(-p))
{
    GIPPR_CHECK(p > 0.0 && p <= 1.0);
}

uint64_t
GeometricDist::sample(Rng &rng) const
{
    if (logFail_ == 0.0)
        return 0;
    double u = rng.nextDouble();
    // Avoid log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return static_cast<uint64_t>(std::floor(std::log(u) / logFail_));
}

Rng
Rng::split()
{
    // Derive an independent child seed from two successive outputs.
    uint64_t a = next();
    uint64_t b = next();
    return Rng(a ^ rotl(b, 32) ^ 0xd1b54a32d192ed03ULL);
}

std::array<uint64_t, 4>
Rng::state() const
{
    return {s_[0], s_[1], s_[2], s_[3]};
}

void
Rng::setState(const std::array<uint64_t, 4> &state)
{
    GIPPR_CHECK(state[0] || state[1] || state[2] || state[3]);
    for (size_t i = 0; i < 4; ++i)
        s_[i] = state[i];
}

ZipfSampler::ZipfSampler(uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    GIPPR_CHECK(n_ > 0);
    GIPPR_CHECK(theta_ >= 0.0);
    // Rejection-inversion constants (Hörmann & Derflinger 1996).
    hImaxPlus1_ = h(static_cast<double>(n_) + 0.5);
    hX0_ = h(0.5) - (theta_ == 1.0
                     ? std::log(1.0)  // == 0; unified below
                     : 1.0);
    // For theta == 1 the antiderivative changes form; recompute.
    if (theta_ == 1.0)
        hX0_ = h(0.5) - 1.0;
    s_ = 2.0 - hInv(h(2.5) - std::pow(2.0, -theta_));
}

double
ZipfSampler::h(double x) const
{
    // Antiderivative of x^-theta.
    if (theta_ == 1.0)
        return std::log(x);
    return std::pow(x, 1.0 - theta_) / (1.0 - theta_);
}

double
ZipfSampler::hInv(double x) const
{
    if (theta_ == 1.0)
        return std::exp(x);
    return std::pow((1.0 - theta_) * x, 1.0 / (1.0 - theta_));
}

uint64_t
ZipfSampler::sample(Rng &rng) const
{
    if (theta_ == 0.0)
        return rng.nextBounded(n_);
    for (;;) {
        double u = hX0_ + rng.nextDouble() * (hImaxPlus1_ - hX0_);
        double x = hInv(u);
        uint64_t k = static_cast<uint64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n_)
            k = n_;
        double kd = static_cast<double>(k);
        if (kd - x <= s_ || u >= h(kd + 0.5) - std::pow(kd, -theta_))
            return k - 1; // ranks are 0-based externally
    }
}

} // namespace gippr
