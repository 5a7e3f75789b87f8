/**
 * @file
 * Tests for the GA fitness function.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "ga/fitness.hh"
#include "util/rng.hh"

namespace gippr
{
namespace
{

CacheConfig
llcCfg()
{
    CacheConfig c;
    c.name = "LLC";
    c.blockBytes = 64;
    c.assoc = 16;
    c.sizeBytes = 64 * 16 * 64; // 64 sets, 1024 blocks
    return c;
}

Trace
thrashTrace(uint64_t blocks, int reps)
{
    Trace t;
    for (int rep = 0; rep < reps; ++rep) {
        for (uint64_t b = 0; b < blocks; ++b) {
            MemRecord r;
            r.addr = b * 64;
            r.instGap = 10;
            t.append(r);
        }
    }
    return t;
}

Trace
friendlyTrace(uint64_t blocks, int reps)
{
    // Working set fits: everything hits after the cold pass under any
    // recency-ish policy.
    return thrashTrace(blocks, reps);
}

FitnessEvaluator
makeEvaluator()
{
    std::vector<FitnessTrace> traces;
    FitnessTrace thrash;
    thrash.name = "thrash/0";
    thrash.llcTrace =
        std::make_shared<Trace>(thrashTrace(1280, 30)); // 1.25x
    thrash.instructions = thrash.llcTrace->instructions();
    traces.push_back(thrash);
    FitnessTrace fit;
    fit.name = "fit/0";
    fit.llcTrace = std::make_shared<Trace>(friendlyTrace(512, 60));
    fit.instructions = fit.llcTrace->instructions();
    traces.push_back(fit);
    return FitnessEvaluator(llcCfg(), std::move(traces), {});
}

TEST(Fitness, LruVectorScoresParity)
{
    FitnessEvaluator fe = makeEvaluator();
    double f = fe.evaluate(Ipv::lru(16), IpvFamily::Giplr);
    EXPECT_NEAR(f, 1.0, 1e-9);
}

TEST(Fitness, LipBeatsLruOnThrash)
{
    FitnessEvaluator fe = makeEvaluator();
    double f = fe.evaluate(Ipv::lruInsertion(16), IpvFamily::Giplr);
    EXPECT_GT(f, 1.05);
}

TEST(Fitness, PerTraceSpeedupsSeparateBehaviours)
{
    FitnessEvaluator fe = makeEvaluator();
    std::vector<double> s =
        fe.perTraceSpeedups(Ipv::lruInsertion(16), IpvFamily::Giplr);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_GT(s[0], 1.1);        // thrash: LIP wins big
    EXPECT_NEAR(s[1], 1.0, 0.05); // friendly: parity
}

TEST(Fitness, GipprFamilyUsesTreeDynamics)
{
    FitnessEvaluator fe = makeEvaluator();
    double lru_like = fe.evaluate(Ipv::lru(16), IpvFamily::Gippr);
    // PLRU is not exactly LRU, but on these patterns it behaves the
    // same way (thrash loses everything either way; fit all hits).
    EXPECT_NEAR(lru_like, 1.0, 0.02);
    double lip = fe.evaluate(Ipv::lruInsertion(16), IpvFamily::Gippr);
    EXPECT_GT(lip, 1.05);
}

TEST(Fitness, MissesMatchLruBaselineForLruVector)
{
    FitnessEvaluator fe = makeEvaluator();
    const std::vector<Ipv> lru = {Ipv::lru(16)};
    const std::vector<std::vector<uint64_t>> misses =
        fe.missesForAll(lru, IpvFamily::Giplr);
    ASSERT_EQ(misses.size(), 1u);
    ASSERT_EQ(misses[0].size(), fe.traceCount());
    for (size_t i = 0; i < fe.traceCount(); ++i)
        EXPECT_EQ(misses[0][i], fe.lruMisses(i)) << i;
}

TEST(Fitness, CpiModelLinearInMisses)
{
    FitnessEvaluator fe = makeEvaluator();
    double cpi0 = fe.estimateCpi(0, 1000000);
    double cpi1 = fe.estimateCpi(1000, 1000000);
    double cpi2 = fe.estimateCpi(2000, 1000000);
    EXPECT_DOUBLE_EQ(cpi0, fe.model().baseCpi);
    EXPECT_NEAR(cpi2 - cpi1, cpi1 - cpi0, 1e-12);
    EXPECT_GT(cpi1, cpi0);
}

TEST(Fitness, RequiresTraces)
{
    EXPECT_THROW(FitnessEvaluator(llcCfg(), {}, {}),
                 std::runtime_error);
}

TEST(Fitness, MemoDigestSeparatesGeometries)
{
    // Regression: the memo digest was keyed only by the traces, so
    // two evaluators sharing training traces but simulating different
    // LLC shapes could alias each other's memo entries.  The geometry
    // must be part of the digest.
    auto traces = [] {
        std::vector<FitnessTrace> ts;
        FitnessTrace t;
        t.name = "thrash/0";
        t.llcTrace = std::make_shared<Trace>(thrashTrace(1280, 30));
        t.instructions = t.llcTrace->instructions();
        ts.push_back(std::move(t));
        return ts;
    };

    CacheConfig big = llcCfg();
    CacheConfig small = llcCfg();
    small.sizeBytes /= 2; // 32 sets instead of 64
    CacheConfig narrow = llcCfg();
    narrow.assoc = 8; // same bytes, different shape

    FitnessEvaluator feBig(big, traces(), {});
    FitnessEvaluator feSmall(small, traces(), {});
    FitnessEvaluator feNarrow(narrow, traces(), {});
    FitnessEvaluator feBig2(big, traces(), {});

    EXPECT_NE(feBig.traceSetDigest(), feSmall.traceSetDigest());
    EXPECT_NE(feBig.traceSetDigest(), feNarrow.traceSetDigest());
    EXPECT_NE(feSmall.traceSetDigest(), feNarrow.traceSetDigest());
    // Same traces + same geometry must still share a digest (the
    // memo's whole point).
    EXPECT_EQ(feBig.traceSetDigest(), feBig2.traceSetDigest());
}

} // namespace
} // namespace gippr
