/**
 * @file
 * Unit and statistical tests for util/rng.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hh"

namespace gippr
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    std::vector<uint64_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(a.next());
    a.seed(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next(), first[i]);
}

TEST(Rng, NextBoundedInRange)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, NextBoundedOneAlwaysZero)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, NextBoundedCoversAllValues)
{
    Rng rng(5);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextBoundedRoughlyUniform)
{
    Rng rng(11);
    const unsigned buckets = 10;
    const int n = 100000;
    std::vector<int> counts(buckets, 0);
    for (int i = 0; i < n; ++i)
        ++counts[rng.nextBounded(buckets)];
    for (unsigned b = 0; b < buckets; ++b) {
        EXPECT_NEAR(counts[b], n / buckets, n / buckets * 0.1) << b;
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextDoubleMeanNearHalf)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBoolProbability)
{
    Rng rng(23);
    int trues = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.nextBool(0.25))
            ++trues;
    EXPECT_NEAR(static_cast<double>(trues) / n, 0.25, 0.01);
}

TEST(Rng, NextBoolZeroAndOne)
{
    Rng rng(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(31);
    const double p = 0.2;
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    // Mean of failures before success = (1-p)/p = 4.
    EXPECT_NEAR(sum / n, (1 - p) / p, 0.15);
}

TEST(Rng, GeometricPOneIsZero)
{
    Rng rng(37);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextGeometric(1.0), 0u);
    // A certain success consumes no draw.
    Rng fresh(37);
    EXPECT_EQ(rng.next(), fresh.next());
}

TEST(Rng, GeometricMatchesClosedForm)
{
    // GeometricDist computes log1p(-p) once; every draw must still be
    // floor(log(u) / log1p(-p)) bit for bit, as nextGeometric(p) gave
    // when it recomputed the denominator per draw.  The p values span
    // the generators' 1/6 and both ends of (0, 1).
    for (double p : {1.0 / 6.0, 1e-9, 1e-6, 0x1.0p-20, 0.5, 0.999,
                     1.0 - 1e-9, std::nextafter(1.0, 0.0)}) {
        const GeometricDist dist(p);
        Rng held(53), per_call(53), reference(53);
        for (int i = 0; i < 20000; ++i) {
            double u = reference.nextDouble();
            if (u <= 0.0)
                u = 0x1.0p-53;
            const auto expected = static_cast<uint64_t>(
                std::floor(std::log(u) / std::log1p(-p)));
            ASSERT_EQ(dist.sample(held), expected) << "p=" << p;
            ASSERT_EQ(per_call.nextGeometric(p), expected) << "p=" << p;
        }
    }
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(41);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleActuallyPermutes)
{
    Rng rng(43);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i)
        v[i] = i;
    rng.shuffle(v);
    int moved = 0;
    for (int i = 0; i < 100; ++i)
        if (v[i] != i)
            ++moved;
    EXPECT_GT(moved, 50);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng a(47);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, StateRoundTripContinuesStream)
{
    // Checkpoint/resume captures the engine state mid-stream; a
    // restored Rng must produce the exact continuation.
    Rng a(73);
    for (int i = 0; i < 100; ++i)
        (void)a.next();
    const auto snapshot = a.state();
    std::vector<uint64_t> expected;
    for (int i = 0; i < 50; ++i)
        expected.push_back(a.next());

    Rng b(1); // different seed, then overwritten
    b.setState(snapshot);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(b.next(), expected[static_cast<size_t>(i)]);
}

TEST(Rng, StateOfFreshSeedMatchesReseed)
{
    // state() right after seeding equals the state a fresh Rng with
    // the same seed holds — the checkpoint never depends on history.
    Rng a(83), b(83);
    EXPECT_EQ(a.state(), b.state());
}

TEST(Zipf, ThetaZeroIsUniform)
{
    Rng rng(53);
    ZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
}

TEST(Zipf, SamplesInRange)
{
    Rng rng(59);
    ZipfSampler z(1000, 0.9);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(z.sample(rng), 1000u);
}

TEST(Zipf, SkewFavorsLowRanks)
{
    Rng rng(61);
    ZipfSampler z(1000, 0.99);
    const int n = 50000;
    int low = 0;
    for (int i = 0; i < n; ++i)
        if (z.sample(rng) < 10)
            ++low;
    // Under uniform sampling, ranks < 10 get ~1%; Zipf 0.99 gives far
    // more.
    EXPECT_GT(low, n / 5);
}

TEST(Zipf, HigherThetaMoreSkew)
{
    Rng rng(67);
    ZipfSampler mild(1000, 0.5), strong(1000, 1.2);
    const int n = 30000;
    int mild_low = 0, strong_low = 0;
    for (int i = 0; i < n; ++i) {
        if (mild.sample(rng) < 10)
            ++mild_low;
        if (strong.sample(rng) < 10)
            ++strong_low;
    }
    EXPECT_GT(strong_low, mild_low);
}

TEST(Zipf, SingleItemAlwaysZero)
{
    Rng rng(71);
    ZipfSampler z(1, 0.9);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(z.sample(rng), 0u);
}

} // namespace
} // namespace gippr
