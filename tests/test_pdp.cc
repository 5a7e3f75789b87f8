/**
 * @file
 * Tests for the Protecting Distance based Policy.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache.hh"
#include "policies/lru.hh"
#include "policies/pdp.hh"
#include "util/histogram.hh"

namespace gippr
{
namespace
{

CacheConfig
cfg(unsigned sets, unsigned ways)
{
    CacheConfig c;
    c.name = "test";
    c.blockBytes = 64;
    c.assoc = ways;
    c.sizeBytes = static_cast<uint64_t>(sets) * ways * 64;
    return c;
}

TEST(PdpSolver, PicksDistanceCoveringReuseMass)
{
    // All reuse at distance 10: protecting for 10 is optimal; any
    // longer only wastes occupancy, any shorter forfeits all hits.
    Histogram rd(64);
    rd.add(10, 1000);
    unsigned dp = PdpController::solveDp(rd, 64);
    EXPECT_EQ(dp, 10u);
}

TEST(PdpSolver, IgnoresUnreachableTail)
{
    // Mass at 4 plus mass in the overflow bucket (beyond max): the
    // solver must protect to 4 only.
    Histogram rd(32);
    rd.add(4, 500);
    rd.add(100, 400); // overflow
    EXPECT_EQ(PdpController::solveDp(rd, 32), 4u);
}

TEST(PdpSolver, BalancesTwoModes)
{
    // Strong near mode and weak far mode: E(dp) peaks at the near
    // mode when the far mode is thin.
    Histogram rd(64);
    rd.add(3, 900);
    rd.add(60, 10);
    EXPECT_EQ(PdpController::solveDp(rd, 64), 3u);
    // When the far mode dominates overwhelmingly, protecting to it
    // pays despite the occupancy cost.
    Histogram rd2(64);
    rd2.add(3, 10);
    rd2.add(60, 990);
    EXPECT_EQ(PdpController::solveDp(rd2, 64), 60u);
}

TEST(PdpSolver, EmptyHistogramGivesDefault)
{
    Histogram rd(64);
    unsigned dp = PdpController::solveDp(rd, 64);
    EXPECT_GE(dp, 1u);
    EXPECT_LE(dp, 64u);
}

TEST(Pdp, ProtectedLinesSurviveUnprotectedEvictFirst)
{
    CacheConfig c = cfg(4, 4);
    PdpParams params;
    params.counterBits = 4;
    params.initialDp = 8;
    params.epochAccesses = 1u << 30; // never recompute in this test
    auto policy = std::make_unique<PdpPolicy>(c, params);
    PdpPolicy *raw = policy.get();
    SetAssocCache cache(c, std::move(policy));
    EXPECT_EQ(raw->protectingDistance(), 8u);
    // Fill the set: all protected.
    for (uint64_t t = 0; t < 4; ++t)
        cache.access(((t << c.setShift()) | 0) << c.blockShift(),
                     AccessType::Load);
    // A burst of misses: victims must rotate through the ways whose
    // protection has expired first (oldest-inserted).
    AccessResult r =
        cache.access((uint64_t{10} << c.setShift()) << c.blockShift(),
                     AccessType::Load);
    ASSERT_TRUE(r.evictedBlock.has_value());
}

TEST(Pdp, ThrashResistanceBeatsLru)
{
    // Cyclic set 1.5x capacity: LRU gets zero hits; PDP's protection
    // plus forced eviction of the least-protected line keeps part of
    // the working set resident.
    CacheConfig c = cfg(64, 4); // 256 blocks
    PdpParams params;
    params.epochAccesses = 2048;
    params.maxDistance = 64;
    SetAssocCache pdp(c, std::make_unique<PdpPolicy>(c, params));
    SetAssocCache lru(c, std::make_unique<LruPolicy>(c));
    for (int rep = 0; rep < 80; ++rep) {
        for (uint64_t b = 0; b < 384; ++b) {
            pdp.access(b * 64, AccessType::Load);
            lru.access(b * 64, AccessType::Load);
        }
    }
    EXPECT_EQ(lru.stats().hits, 0u);
    EXPECT_GT(pdp.stats().hits, 2000u);
}

TEST(Pdp, KeepsHotSetUnderPollution)
{
    CacheConfig c = cfg(16, 4);
    PdpParams params;
    params.epochAccesses = 1024;
    SetAssocCache cache(c, std::make_unique<PdpPolicy>(c, params));
    // Alternate: hot block per set touched every iteration, cold
    // stream pollutes.
    uint64_t cold = 1000;
    uint64_t hits_late = 0;
    for (int i = 0; i < 20000; ++i) {
        uint64_t set = static_cast<uint64_t>(i) % 16;
        AccessResult h = cache.access(
            ((uint64_t{1} << c.setShift()) | set) << c.blockShift(),
            AccessType::Load);
        if (i > 10000 && h.hit)
            ++hits_late;
        cache.access(((cold++ << c.setShift()) | set)
                         << c.blockShift(),
                     AccessType::Load);
    }
    // The hot block must be essentially always resident late in the
    // run.
    EXPECT_GT(hits_late, 4500u);
}

TEST(Pdp, StateBitsMatchConfiguredWidth)
{
    CacheConfig c = CacheConfig::paperLlc();
    PdpParams params;
    params.counterBits = 4;
    PdpPolicy p(c, params);
    // 4-bit protection counter + reuse bit per line, 16 ways, plus
    // the per-set tick counter.
    EXPECT_EQ(p.stateBitsPerSet(), 16u * 5u + 8u);
    EXPECT_GT(p.globalStateBits(), 0u);
}

TEST(Pdp, EpochRecomputesProtectingDistance)
{
    CacheConfig c = cfg(16, 4);
    PdpParams params;
    params.epochAccesses = 512;
    params.initialDp = 3;
    params.sampleShift = 0; // sample every set
    params.maxDistance = 32;
    auto policy = std::make_unique<PdpPolicy>(c, params);
    PdpPolicy *raw = policy.get();
    SetAssocCache cache(c, std::move(policy));
    // Reuse at per-set distance ~8: loop 8 blocks per set repeatedly.
    for (int rep = 0; rep < 200; ++rep)
        for (uint64_t t = 0; t < 8; ++t)
            for (uint64_t s = 0; s < 16; ++s)
                cache.access(((t << c.setShift()) | s)
                                 << c.blockShift(),
                             AccessType::Load);
    EXPECT_NE(raw->protectingDistance(), 3u);
    EXPECT_GE(raw->protectingDistance(), 7u);
    EXPECT_LE(raw->protectingDistance(), 9u);
}

} // namespace
} // namespace gippr
