/**
 * @file
 * Tests for the simple baseline policies: LRU, Random, FIFO.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache.hh"
#include "policies/fifo.hh"
#include "policies/lru.hh"
#include "policies/random.hh"
#include "util/rng.hh"

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

uint64_t
setAddr(const CacheConfig &c, uint64_t set, uint64_t tag)
{
    return ((tag << c.setShift()) | set) << c.blockShift();
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    CacheConfig c = cfg(2, 4);
    SetAssocCache cache(c, std::make_unique<LruPolicy>(c));
    for (uint64_t t = 0; t < 4; ++t)
        cache.access(setAddr(c, 0, t), AccessType::Load);
    // Touch tags 0..2; tag 3 becomes LRU.
    for (uint64_t t = 0; t < 3; ++t)
        cache.access(setAddr(c, 0, t), AccessType::Load);
    AccessResult r = cache.access(setAddr(c, 0, 9), AccessType::Load);
    ASSERT_TRUE(r.evictedBlock.has_value());
    EXPECT_EQ(*r.evictedBlock, (3ull << c.setShift()) | 0u);
}

TEST(Lru, HitOrderIsExactStackOrder)
{
    CacheConfig c = cfg(2, 4);
    LruPolicy *lru_raw;
    auto lru = std::make_unique<LruPolicy>(c);
    lru_raw = lru.get();
    SetAssocCache cache(c, std::move(lru));
    for (uint64_t t = 0; t < 4; ++t)
        cache.access(setAddr(c, 0, t), AccessType::Load);
    // Most recent is tag 3 at way 3.
    EXPECT_EQ(*lru_raw->recencyPosition(0, 3), 0u);
    EXPECT_EQ(*lru_raw->recencyPosition(0, 0), 3u);
    cache.access(setAddr(c, 0, 0), AccessType::Load);
    EXPECT_EQ(*lru_raw->recencyPosition(0, 0), 0u);
    EXPECT_EQ(*lru_raw->recencyPosition(0, 3), 1u);
}

TEST(Lru, StateBitsMatchPaper)
{
    CacheConfig c = CacheConfig::paperLlc();
    LruPolicy lru(c);
    // 16 ways * log2(16) = 64 bits per set.
    EXPECT_EQ(lru.stateBitsPerSet(), 64u);
}

TEST(Lru, InvalidatedWayIsNextVictim)
{
    CacheConfig c = cfg(2, 4);
    SetAssocCache cache(c, std::make_unique<LruPolicy>(c));
    for (uint64_t t = 0; t < 4; ++t)
        cache.access(setAddr(c, 0, t), AccessType::Load);
    cache.invalidate(setAddr(c, 0, 2));
    // Next fill goes into the invalidated way (no eviction).
    AccessResult r = cache.access(setAddr(c, 0, 8), AccessType::Load);
    EXPECT_FALSE(r.evictedBlock.has_value());
}

TEST(Random, DeterministicWithSeed)
{
    CacheConfig c = cfg(4, 4);
    auto run = [&](uint64_t seed) {
        SetAssocCache cache(c,
                            std::make_unique<RandomPolicy>(c, seed));
        uint64_t evictions_sig = 0;
        for (uint64_t t = 0; t < 100; ++t) {
            AccessResult r =
                cache.access(setAddr(c, 0, t), AccessType::Load);
            if (r.evictedBlock)
                evictions_sig = evictions_sig * 31 + *r.evictedBlock;
        }
        return evictions_sig;
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}

TEST(Random, ZeroStateBits)
{
    CacheConfig c = cfg(4, 4);
    RandomPolicy p(c, 1);
    EXPECT_EQ(p.stateBitsPerSet(), 0u);
}

TEST(Random, VictimsCoverAllWays)
{
    CacheConfig c = cfg(2, 8);
    RandomPolicy p(c, 3);
    AccessInfo info;
    info.set = 0;
    std::vector<bool> seen(8, false);
    for (int i = 0; i < 1000; ++i)
        seen[p.victim(info)] = true;
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_TRUE(seen[w]) << w;
}

TEST(Fifo, EvictsInsertionOrderRegardlessOfHits)
{
    CacheConfig c = cfg(2, 4);
    SetAssocCache cache(c, std::make_unique<FifoPolicy>(c));
    for (uint64_t t = 0; t < 4; ++t)
        cache.access(setAddr(c, 0, t), AccessType::Load);
    // Hit tag 0 repeatedly; FIFO must still evict tag 0 first.
    for (int i = 0; i < 10; ++i)
        cache.access(setAddr(c, 0, 0), AccessType::Load);
    AccessResult r = cache.access(setAddr(c, 0, 9), AccessType::Load);
    ASSERT_TRUE(r.evictedBlock.has_value());
    EXPECT_EQ(*r.evictedBlock, 0u);
}

TEST(Fifo, RoundRobinOrder)
{
    CacheConfig c = cfg(2, 2);
    SetAssocCache cache(c, std::make_unique<FifoPolicy>(c));
    cache.access(setAddr(c, 0, 0), AccessType::Load);
    cache.access(setAddr(c, 0, 1), AccessType::Load);
    AccessResult r1 = cache.access(setAddr(c, 0, 2), AccessType::Load);
    ASSERT_TRUE(r1.evictedBlock.has_value());
    EXPECT_EQ(*r1.evictedBlock, 0u);
    AccessResult r2 = cache.access(setAddr(c, 0, 3), AccessType::Load);
    ASSERT_TRUE(r2.evictedBlock.has_value());
    EXPECT_EQ(*r2.evictedBlock, 1ull << c.setShift());
}

TEST(Fifo, StateBitsLogarithmic)
{
    CacheConfig c = cfg(2, 16);
    FifoPolicy p(c);
    EXPECT_EQ(p.stateBitsPerSet(), 4u);
}

} // namespace
} // namespace gippr
