/**
 * @file
 * Tests for Belady's MIN: exactness on hand-worked examples and the
 * optimality property (MIN never misses more than any online policy).
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache.hh"
#include "cache/replay.hh"
#include "core/gippr.hh"
#include "core/plru.hh"
#include "core/vectors.hh"
#include "policies/belady.hh"
#include "policies/fifo.hh"
#include "policies/lru.hh"
#include "policies/random.hh"
#include "policies/rrip.hh"
#include "util/bitops.hh"
#include "util/block_map.hh"
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

Trace
traceOfBlocks(const std::vector<uint64_t> &blocks)
{
    Trace t;
    for (uint64_t b : blocks) {
        MemRecord r;
        r.addr = b * 64;
        t.append(r);
    }
    return t;
}

uint64_t
missesUnder(const CacheConfig &c,
            std::unique_ptr<ReplacementPolicy> policy, const Trace &t)
{
    SetAssocCache cache(c, std::move(policy));
    replayTrace(cache, t);
    return cache.stats().demandMisses;
}

TEST(Belady, ClassicTextbookExample)
{
    // Fully-associative 3-entry cache (1 set x 3 ways), the classic
    // reference string 2 3 2 1 5 2 4 5 3 2 5 2: MIN takes 3 cold +
    // ... worked by hand below.
    CacheConfig c = cfg(1, 3);
    Trace t = traceOfBlocks({2, 3, 2, 1, 5, 2, 4, 5, 3, 2, 5, 2});
    // Hand-worked MIN:
    //  2 miss {2}            3 miss {2,3}        2 hit
    //  1 miss {2,3,1}        5 miss evict 1 or 3 (next use of 3 is
    //  pos 8, 1 never)  -> evict 1 {2,3,5}       2 hit
    //  4 miss evict 3? next uses: 2@9, 5@7, 3@8 -> evict 2? No:
    //  farthest next use among {2(9),3(8),5(7)} is 2 -> evict 2
    //  {4,3,5}               5 hit               3 hit
    //  2 miss evict 4 (never used again) {2,3,5} 5 hit   2 hit
    // Total misses: 6.
    uint64_t min_misses = runMinMisses(c, t);
    EXPECT_EQ(min_misses, 6u);
}

TEST(Belady, AllDistinctBlocksAllMiss)
{
    CacheConfig c = cfg(2, 2);
    Trace t = traceOfBlocks({1, 2, 3, 4, 5, 6, 7, 8});
    EXPECT_EQ(runMinMisses(c, t), 8u);
}

TEST(Belady, RepeatedBlockOnlyFirstMisses)
{
    CacheConfig c = cfg(2, 2);
    Trace t = traceOfBlocks({7, 7, 7, 7, 7});
    EXPECT_EQ(runMinMisses(c, t), 1u);
}

TEST(Belady, CyclicPatternKeepsMaximalSubset)
{
    // 1 set x 4 ways, cyclic over 5 blocks, 10 cycles: MIN keeps 3
    // fixed blocks plus rotates; classic result: after the 5 cold
    // misses, MIN misses exactly once per ... at most 2 per cycle.
    CacheConfig c = cfg(1, 4);
    std::vector<uint64_t> blocks;
    for (int rep = 0; rep < 10; ++rep)
        for (uint64_t b = 0; b < 5; ++b)
            blocks.push_back(b);
    Trace t = traceOfBlocks(blocks);
    uint64_t min_misses = runMinMisses(c, t);
    // LRU would miss all 50; MIN misses the 5 cold + 1 per remaining
    // reuse window.
    EXPECT_LT(min_misses, 20u);
    uint64_t lru_misses =
        missesUnder(c, std::make_unique<LruPolicy>(c), t);
    EXPECT_EQ(lru_misses, 50u);
}

class BeladyOptimality : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BeladyOptimality, NoOnlinePolicyBeatsMin)
{
    // Property test: on a random trace, MIN's miss count lower-bounds
    // every implementable policy's.
    const uint64_t seed = GetParam();
    CacheConfig c = cfg(8, 4);
    Rng rng(seed);
    std::vector<uint64_t> blocks;
    // Mix of hot blocks, loops and cold streams.
    uint64_t cold = 10000;
    for (int i = 0; i < 8000; ++i) {
        switch (rng.nextBounded(3)) {
          case 0:
            blocks.push_back(rng.nextBounded(24)); // hot region
            break;
          case 1:
            blocks.push_back(100 + (static_cast<uint64_t>(i) % 80));
            break;
          default:
            blocks.push_back(cold++);
        }
    }
    Trace t = traceOfBlocks(blocks);
    uint64_t min_misses = runMinMisses(c, t);

    EXPECT_LE(min_misses,
              missesUnder(c, std::make_unique<LruPolicy>(c), t));
    EXPECT_LE(min_misses,
              missesUnder(c, std::make_unique<FifoPolicy>(c), t));
    EXPECT_LE(min_misses,
              missesUnder(c, std::make_unique<RandomPolicy>(c, seed), t));
    EXPECT_LE(min_misses, missesUnder(c, makeSrrip(c), t));
    EXPECT_LE(min_misses, missesUnder(c, makeDrrip(c, 2, 2, seed), t));
    EXPECT_LE(min_misses,
              missesUnder(c, std::make_unique<PlruPolicy>(c), t));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BeladyOptimality,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

TEST(Belady, WarmupExcludesEarlyMisses)
{
    CacheConfig c = cfg(2, 2);
    Trace t = traceOfBlocks({1, 2, 3, 4, 1, 2, 3, 4});
    uint64_t all = runMinMisses(c, t, 0);
    uint64_t measured = runMinMisses(c, t, 4);
    EXPECT_LT(measured, all);
}

TEST(Belady, SequenceContractEnforced)
{
    // Replaying more accesses than the trace it was built from is a
    // programming error the policy must catch.
    CacheConfig c = cfg(2, 2);
    Trace t = traceOfBlocks({1, 2});
    SetAssocCache cache(c, std::make_unique<BeladyPolicy>(c, t));
    cache.access(64, AccessType::Load);
    cache.access(128, AccessType::Load);
    EXPECT_DEATH(cache.access(192, AccessType::Load), "beyond");
}

/** Random LLC stream over @p c: hot blocks, a cold sweep, colliding
 *  tag signatures and writebacks. */
Trace
mixedStream(const CacheConfig &c, uint64_t n, uint64_t seed)
{
    Rng rng(seed);
    const uint64_t lines = c.sets() * c.assoc;
    Trace t;
    uint64_t sweep = 0;
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t block;
        switch (rng.nextBounded(4)) {
          case 0:
            block = rng.nextBounded(lines); // fits: hits
            break;
          case 1:
            block = lines + sweep++ % (4 * lines); // thrash
            break;
          case 2:
            // Tags equal in their low byte: the row scan must verify.
            block = (rng.nextBounded(8) << 8 << floorLog2(c.sets())) |
                    rng.nextBounded(c.sets());
            break;
          default:
            block = rng.nextBounded(64 * lines); // cold, mostly
        }
        MemRecord r;
        r.addr = block * 64 + rng.nextBounded(64);
        if (rng.nextBool(0.1))
            r.type = AccessType::Writeback;
        else if (rng.nextBool(0.3))
            r.type = AccessType::Store;
        t.append(r);
    }
    return t;
}

TEST(Belady, FlatReplayMatchesScalarMin)
{
    // runMinMisses replays on flat arrays; SetAssocCache + BeladyPolicy
    // is the reference, at every row width (the SSE-scanned 8 and 16
    // and the generic loops) and warmup at the start, mid-trace and
    // the end.
    for (unsigned ways : {2u, 4u, 8u, 16u, 32u}) {
        const CacheConfig c = cfg(32, ways);
        const Trace t = mixedStream(c, 12'000, 0xbe1ad1 + ways);
        for (size_t warmup : {size_t{0}, t.size() / 2, t.size()}) {
            SetAssocCache cache(c, std::make_unique<BeladyPolicy>(c, t));
            replayTrace(cache, t, warmup);
            EXPECT_EQ(runMinMisses(c, t, warmup),
                      cache.stats().demandMisses)
                << ways << " ways, warmup " << warmup;
        }
    }
}

TEST(Belady, NextUseIndicesMatchReferenceScan)
{
    // Enough distinct blocks to grow the map several times.
    const CacheConfig c = cfg(32, 16);
    const Trace t = mixedStream(c, 20'000, 0x9e27);
    const std::vector<uint32_t> next = nextUseIndices(t, c.blockShift());
    ASSERT_EQ(next.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        uint32_t want = kNoNextUse;
        for (size_t j = i + 1; j < t.size() && j < i + 4000; ++j) {
            if (t[j].addr >> 6 == t[i].addr >> 6) {
                want = static_cast<uint32_t>(j);
                break;
            }
        }
        // Beyond the scan window only "no nearer use" is checked.
        if (want != kNoNextUse || next[i] < i + 4000) {
            ASSERT_EQ(next[i], want) << i;
        }
    }
}

TEST(BlockMap, PutFindClearAndGrow)
{
    BlockMap map(4);
    EXPECT_EQ(map.find(7), nullptr);
    for (uint64_t k = 0; k < 12; ++k) {
        ASSERT_FALSE(map.full()) << k;
        map.put(k << 40, static_cast<uint32_t>(k));
    }
    EXPECT_TRUE(map.full()); // 13 entries would pass 3/4 of 16
    map.grow();
    for (uint64_t k = 12; k < 20; ++k)
        map.put(k << 40, static_cast<uint32_t>(k));
    EXPECT_EQ(map.size(), 20u);
    for (uint64_t k = 0; k < 20; ++k) {
        ASSERT_NE(map.find(k << 40), nullptr) << k;
        EXPECT_EQ(*map.find(k << 40), k);
    }
    *map.find(3ULL << 40) = 99;
    EXPECT_EQ(*map.find(3ULL << 40), 99u);
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(3ULL << 40), nullptr);
    map.put(3ULL << 40, 5);
    EXPECT_EQ(*map.find(3ULL << 40), 5u);
    EXPECT_EQ(map.find(4ULL << 40), nullptr);
}

TEST(Belady, MuchBetterThanLruOnThrash)
{
    // The headline MIN property the paper reports (67.5% of LRU
    // misses on SPEC): on a pure thrash loop the gap is dramatic.
    CacheConfig c = cfg(4, 4); // 16 blocks
    std::vector<uint64_t> blocks;
    for (int rep = 0; rep < 50; ++rep)
        for (uint64_t b = 0; b < 24; ++b) // 1.5x capacity
            blocks.push_back(b);
    Trace t = traceOfBlocks(blocks);
    uint64_t min_misses = runMinMisses(c, t);
    uint64_t lru_misses =
        missesUnder(c, std::make_unique<LruPolicy>(c), t);
    EXPECT_LT(min_misses * 2, lru_misses);
}

} // namespace
} // namespace gippr
