/**
 * @file
 * Cross-policy property tests: every policy in the zoo must satisfy
 * the ReplacementPolicy contract under the same randomized workloads.
 * Parameterized over policy names so each (policy, property) pair is
 * an individual test case.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "sim/policy_zoo.hh"
#include "util/rng.hh"

namespace gippr
{
namespace
{

CacheConfig
testConfig()
{
    CacheConfig c;
    c.name = "prop";
    c.blockBytes = 64;
    c.assoc = 16;
    c.sizeBytes = 64 * 16 * 64; // 64 sets
    return c;
}

class PolicyProperty : public ::testing::TestWithParam<const char *>
{
  protected:
    SetAssocCache
    makeCache()
    {
        CacheConfig c = testConfig();
        return SetAssocCache(c, policyByName(GetParam()).make(c));
    }
};

TEST_P(PolicyProperty, SurvivesRandomizedMixedTraffic)
{
    SetAssocCache cache = makeCache();
    CacheConfig c = testConfig();
    Rng rng(101);
    for (int i = 0; i < 60000; ++i) {
        uint64_t block = rng.nextBounded(4096);
        AccessType type;
        switch (rng.nextBounded(10)) {
          case 0:
            type = AccessType::Writeback;
            break;
          case 1:
          case 2:
            type = AccessType::Store;
            break;
          default:
            type = AccessType::Load;
        }
        AccessResult r = cache.access(block * 64, type);
        // Contract: way in range unless bypassed.
        if (!r.bypassed) {
            ASSERT_LT(r.way, c.assoc);
        }
    }
    EXPECT_EQ(cache.stats().accesses, 60000u);
}

TEST_P(PolicyProperty, DeterministicReplay)
{
    auto run = [&]() {
        SetAssocCache cache = makeCache();
        Rng rng(202);
        uint64_t signature = 0;
        for (int i = 0; i < 30000; ++i) {
            uint64_t block = rng.nextBounded(2048);
            AccessResult r = cache.access(block * 64, AccessType::Load);
            signature = signature * 31 + (r.hit ? 1 : 0);
        }
        return std::make_pair(signature, cache.stats().misses);
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST_P(PolicyProperty, ResidentBlockHitsUntilEvicted)
{
    // After an access, an immediate re-access must hit (no policy may
    // evict the just-touched block as a side effect of its own
    // bookkeeping), except policies that bypassed the fill.
    SetAssocCache cache = makeCache();
    Rng rng(303);
    for (int i = 0; i < 20000; ++i) {
        uint64_t block = rng.nextBounded(4096);
        AccessResult first = cache.access(block * 64, AccessType::Load);
        if (first.bypassed)
            continue;
        AccessResult again = cache.access(block * 64, AccessType::Load);
        ASSERT_TRUE(again.hit) << "iteration " << i;
    }
}

TEST_P(PolicyProperty, InvalidateThenRefill)
{
    SetAssocCache cache = makeCache();
    // Fill one set completely.
    CacheConfig c = testConfig();
    for (uint64_t t = 0; t < c.assoc; ++t)
        cache.access(((t << c.setShift()) | 3) << c.blockShift(),
                     AccessType::Load);
    // Invalidate two lines and re-access: must refill without
    // evicting valid lines.
    cache.invalidate(((2ull << c.setShift()) | 3) << c.blockShift());
    cache.invalidate(((5ull << c.setShift()) | 3) << c.blockShift());
    EXPECT_EQ(cache.validCount(3), c.assoc - 2);
    AccessResult r = cache.access(
        ((20ull << c.setShift()) | 3) << c.blockShift(),
        AccessType::Load);
    if (!r.bypassed) {
        EXPECT_FALSE(r.evictedBlock.has_value());
    }
}

TEST_P(PolicyProperty, StorageAccountingIsStable)
{
    CacheConfig c = testConfig();
    auto p1 = policyByName(GetParam()).make(c);
    auto p2 = policyByName(GetParam()).make(c);
    EXPECT_EQ(p1->stateBitsPerSet(), p2->stateBitsPerSet());
    EXPECT_EQ(p1->globalStateBits(), p2->globalStateBits());
    // Exercising the policy must not change its declared storage.
    SetAssocCache cache(c, policyByName(GetParam()).make(c));
    size_t before = cache.policy().stateBitsPerSet();
    Rng rng(404);
    for (int i = 0; i < 5000; ++i)
        cache.access(rng.nextBounded(4096) * 64, AccessType::Load);
    EXPECT_EQ(cache.policy().stateBitsPerSet(), before);
}

TEST_P(PolicyProperty, HitRateSaneOnResidentWorkingSet)
{
    // A working set of half the cache, touched round-robin: every
    // non-bypassing policy must eventually hit nearly always.
    SetAssocCache cache = makeCache();
    CacheConfig c = testConfig();
    const uint64_t blocks = c.sets() * c.assoc / 2;
    for (int rep = 0; rep < 4; ++rep)
        for (uint64_t b = 0; b < blocks; ++b)
            cache.access(b * 64, AccessType::Load);
    cache.clearStats();
    for (int rep = 0; rep < 4; ++rep)
        for (uint64_t b = 0; b < blocks; ++b)
            cache.access(b * 64, AccessType::Load);
    double hit_rate = static_cast<double>(cache.stats().hits) /
                      static_cast<double>(cache.stats().accesses);
    // 0.85, not ~1.0: dueling policies dedicate leader sets to their
    // losing member (on this small test cache up to 12.5% of sets),
    // and B-GIPPR's bypass-side leaders barely cache at all.
    EXPECT_GT(hit_rate, 0.85);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, PolicyProperty,
    ::testing::Values("LRU", "PLRU", "Random", "FIFO", "DIP", "SRRIP",
                      "BRRIP", "DRRIP", "PDP", "DGIPPR2",
                      "DGIPPR4", "DGIPPR8", "BGIPPR", "RRIPIPV",
                      "GIPPR:0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13",
                      "GIPLR:0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13"),
    [](const ::testing::TestParamInfo<const char *> &param_info) {
        std::string name = param_info.param;
        auto colon = name.find(':');
        if (colon != std::string::npos)
            name = name.substr(0, colon) + "Vec";
        return name;
    });

} // namespace
} // namespace gippr
