/**
 * @file
 * Unit tests for the set-associative cache model and geometry.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/replay.hh"
#include "policies/lru.hh"
#include "policies/rrip.hh"

namespace gippr
{
namespace
{

CacheConfig
tinyConfig(unsigned sets = 4, unsigned ways = 2)
{
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.blockBytes = 64;
    cfg.assoc = ways;
    cfg.sizeBytes = static_cast<uint64_t>(sets) * ways * 64;
    return cfg;
}

SetAssocCache
makeLruCache(const CacheConfig &cfg)
{
    return SetAssocCache(cfg, std::make_unique<LruPolicy>(cfg));
}

TEST(CacheConfig, GeometryDerivation)
{
    CacheConfig cfg = CacheConfig::paperLlc();
    EXPECT_EQ(cfg.sets(), 4096u);
    EXPECT_EQ(cfg.blockShift(), 6u);
    EXPECT_EQ(cfg.setShift(), 12u);
}

TEST(CacheConfig, AddressDecomposition)
{
    const AddressDecode decode(tinyConfig(4, 2)); // 4 sets, 64B blocks
    uint64_t addr = (0x5u << 8) | (3u << 6) | 17u; // tag 5, set 3
    EXPECT_EQ(decode.blockAddr(addr), (0x5u << 2) | 3u);
    EXPECT_EQ(decode.setIndex(addr), 3u);
    EXPECT_EQ(decode.tag(addr), 0x5u);
    EXPECT_EQ(decode.blockOf(3, 0x5u), decode.blockAddr(addr));
}

TEST(CacheConfig, ValidateAcceptsPaperConfigs)
{
    EXPECT_NO_THROW(CacheConfig::paperLlc().validate());
    EXPECT_NO_THROW(CacheConfig::paperL1d().validate());
    EXPECT_NO_THROW(CacheConfig::paperL2().validate());
    EXPECT_NO_THROW(CacheConfig::benchLlc().validate());
}

TEST(CacheConfig, ValidateRejectsNonPow2Block)
{
    CacheConfig cfg = tinyConfig();
    cfg.blockBytes = 48;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(CacheConfig, ValidateRejectsNonPow2Sets)
{
    CacheConfig cfg;
    cfg.sizeBytes = 3 * 2 * 64; // 3 sets
    cfg.assoc = 2;
    cfg.blockBytes = 64;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(CacheConfig, ValidateRejectsIndivisibleSize)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1000;
    cfg.assoc = 2;
    cfg.blockBytes = 64;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(Cache, ColdMissThenHit)
{
    auto cache = makeLruCache(tinyConfig());
    AccessResult r1 = cache.access(0x1000, AccessType::Load);
    EXPECT_FALSE(r1.hit);
    AccessResult r2 = cache.access(0x1000, AccessType::Load);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, SameBlockDifferentOffsetsHit)
{
    auto cache = makeLruCache(tinyConfig());
    cache.access(0x1000, AccessType::Load);
    EXPECT_TRUE(cache.access(0x103F, AccessType::Load).hit);
}

TEST(Cache, FillsInvalidWaysBeforeEvicting)
{
    auto cache = makeLruCache(tinyConfig(4, 2));
    // Two blocks in the same set: no eviction.
    cache.access(0x0000, AccessType::Load);            // set 0
    AccessResult r = cache.access(0x0400, AccessType::Load); // set 0
    EXPECT_FALSE(r.evictedBlock.has_value());
    EXPECT_EQ(cache.validCount(0), 2u);
}

TEST(Cache, EvictsWhenSetFull)
{
    auto cache = makeLruCache(tinyConfig(4, 2));
    cache.access(0x0000, AccessType::Load);
    cache.access(0x0400, AccessType::Load);
    AccessResult r = cache.access(0x0800, AccessType::Load);
    ASSERT_TRUE(r.evictedBlock.has_value());
    // LRU victim is the first block.
    EXPECT_EQ(*r.evictedBlock, 0u);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, LruOrderRespectsHits)
{
    auto cache = makeLruCache(tinyConfig(4, 2));
    cache.access(0x0000, AccessType::Load); // A
    cache.access(0x0400, AccessType::Load); // B
    cache.access(0x0000, AccessType::Load); // touch A -> B is LRU
    AccessResult r = cache.access(0x0800, AccessType::Load);
    ASSERT_TRUE(r.evictedBlock.has_value());
    EXPECT_EQ(*r.evictedBlock, 0x0400u >> 6);
}

TEST(Cache, DirtyEvictionReported)
{
    auto cache = makeLruCache(tinyConfig(4, 2));
    cache.access(0x0000, AccessType::Store);
    cache.access(0x0400, AccessType::Load);
    AccessResult r = cache.access(0x0800, AccessType::Load);
    ASSERT_TRUE(r.evictedBlock.has_value());
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNotDirty)
{
    auto cache = makeLruCache(tinyConfig(4, 2));
    cache.access(0x0000, AccessType::Load);
    cache.access(0x0400, AccessType::Load);
    AccessResult r = cache.access(0x0800, AccessType::Load);
    ASSERT_TRUE(r.evictedBlock.has_value());
    EXPECT_FALSE(r.evictedDirty);
}

TEST(Cache, StoreHitMarksDirty)
{
    auto cache = makeLruCache(tinyConfig(4, 2));
    cache.access(0x0000, AccessType::Load);
    cache.access(0x0000, AccessType::Store); // hit, dirties
    cache.access(0x0400, AccessType::Load);
    AccessResult r = cache.access(0x0800, AccessType::Load);
    // 0x0400 is LRU? No: order A(0), A(0) hit, B. LRU is B? A touched
    // twice then B loaded: LRU is A.
    ASSERT_TRUE(r.evictedBlock.has_value());
    EXPECT_EQ(*r.evictedBlock, 0u);
    EXPECT_TRUE(r.evictedDirty);
}

TEST(Cache, WritebackAccessesNotDemand)
{
    auto cache = makeLruCache(tinyConfig());
    cache.access(0x1000, AccessType::Writeback);
    EXPECT_EQ(cache.stats().accesses, 1u);
    EXPECT_EQ(cache.stats().demandAccesses, 0u);
    EXPECT_EQ(cache.stats().demandMisses, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    auto cache = makeLruCache(tinyConfig(4, 2));
    cache.access(0x0000, AccessType::Load);
    cache.access(0x0400, AccessType::Load);
    EXPECT_TRUE(cache.probe(0x0000));
    EXPECT_FALSE(cache.probe(0x0800));
    uint64_t hits_before = cache.stats().hits;
    cache.probe(0x0000);
    EXPECT_EQ(cache.stats().hits, hits_before);
    // Probing A must not refresh recency: B..A order unchanged means
    // victim is still A.
    AccessResult r = cache.access(0x0800, AccessType::Load);
    ASSERT_TRUE(r.evictedBlock.has_value());
    EXPECT_EQ(*r.evictedBlock, 0u);
}

TEST(Cache, InvalidateRemovesBlock)
{
    auto cache = makeLruCache(tinyConfig());
    cache.access(0x1000, AccessType::Load);
    cache.invalidate(0x1000);
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_FALSE(cache.access(0x1000, AccessType::Load).hit);
}

TEST(Cache, InvalidateMissingBlockIsNoop)
{
    auto cache = makeLruCache(tinyConfig());
    EXPECT_NO_THROW(cache.invalidate(0xFFFF000));
}

TEST(Cache, ResetClearsEverything)
{
    auto cache = makeLruCache(tinyConfig());
    cache.access(0x1000, AccessType::Store);
    cache.reset();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_FALSE(cache.probe(0x1000));
}

TEST(Cache, ClearStatsKeepsContents)
{
    auto cache = makeLruCache(tinyConfig());
    cache.access(0x1000, AccessType::Load);
    cache.clearStats();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_TRUE(cache.access(0x1000, AccessType::Load).hit);
}

TEST(Cache, BlockAtReportsResidents)
{
    CacheConfig cfg = tinyConfig(4, 2);
    auto cache = makeLruCache(cfg);
    cache.access(0x0000, AccessType::Load);
    auto blk = cache.blockAt(0, 0);
    ASSERT_TRUE(blk.has_value());
    EXPECT_EQ(*blk, 0u);
    EXPECT_FALSE(cache.blockAt(0, 1).has_value());
}

TEST(Cache, MissRateAndMpki)
{
    auto cache = makeLruCache(tinyConfig());
    cache.access(0x1000, AccessType::Load);
    cache.access(0x1000, AccessType::Load);
    EXPECT_DOUBLE_EQ(cache.stats().missRate(), 0.5);
    EXPECT_DOUBLE_EQ(cache.stats().mpki(1000), 1.0);
}

TEST(Cache, DistinctSetsDoNotInterfere)
{
    auto cache = makeLruCache(tinyConfig(4, 2));
    // Fill set 0 thrice; set 1 resident block must survive.
    cache.access(0x0040, AccessType::Load); // set 1
    cache.access(0x0000, AccessType::Load); // set 0
    cache.access(0x0400, AccessType::Load); // set 0
    cache.access(0x0800, AccessType::Load); // set 0, evicts in set 0
    EXPECT_TRUE(cache.probe(0x0040));
}

TEST(CacheReplay, RecordTypeConvention)
{
    // Replay takes each record's type as it is: a load and a store are
    // demand accesses, a writeback is not, and demandOnlyTrace drops
    // only the writeback, folding its gap into the next record.
    Trace t;
    for (AccessType type :
         {AccessType::Load, AccessType::Writeback, AccessType::Store}) {
        MemRecord r;
        r.addr = t.size() * 64;
        r.instGap = 2;
        r.type = type;
        t.append(r);
    }
    auto cache = makeLruCache(tinyConfig(16, 2));
    replayTrace(cache, t);
    EXPECT_EQ(cache.stats().accesses, 3u);
    EXPECT_EQ(cache.stats().demandAccesses, 2u);

    const Trace demand = demandOnlyTrace(t);
    ASSERT_EQ(demand.size(), 2u);
    EXPECT_EQ(demand[0].type, AccessType::Load);
    EXPECT_EQ(demand[1].type, AccessType::Store);
    EXPECT_EQ(demand[1].instGap, 4u);
}

TEST(CacheReplay, WarmupExcludedFromStats)
{
    Trace t;
    for (int i = 0; i < 10; ++i) {
        MemRecord r;
        r.addr = static_cast<uint64_t>(i) * 64;
        t.append(r);
    }
    auto cache = makeLruCache(tinyConfig(16, 2));
    replayTrace(cache, t, 6);
    EXPECT_EQ(cache.stats().demandAccesses, 4u);
}

TEST(CacheReplay, InstructionGapOverflowIsFatal)
{
    // A writeback's gap folds into the next demand record, whose
    // 32-bit instGap cannot carry 2^32 - 1 + 1 instructions.
    Trace t;
    MemRecord writeback;
    writeback.type = AccessType::Writeback;
    writeback.instGap = 0xFFFFFFFFu;
    t.append(writeback);
    MemRecord demand;
    demand.addr = 0x40;
    t.append(demand);
    EXPECT_DEATH(([&]() noexcept { demandOnlyTrace(t); })(),
                 "instruction gap 4294967296 at LLC record 1 overflows");
}

TEST(Cache, WayMaskConfinesFills)
{
    CacheConfig cfg = tinyConfig(1, 4);
    SetAssocCache cache = makeLruCache(cfg);
    const uint64_t low = 0b0011;
    // Fills take the mask's invalid ways, then evict within it.
    EXPECT_EQ(cache.access(0 * 64, AccessType::Load, 0, low).way, 0u);
    EXPECT_EQ(cache.access(1 * 64, AccessType::Load, 0, low).way, 1u);
    AccessResult r = cache.access(2 * 64, AccessType::Load, 0, low);
    EXPECT_EQ(r.way, 0u);
    ASSERT_TRUE(r.evictedBlock.has_value());
    EXPECT_EQ(*r.evictedBlock, 0u);
    EXPECT_EQ(cache.validCount(0), 2u);
    // The other ways fill under their own mask; every line still
    // hits whatever mask the hit carries.
    EXPECT_EQ(cache.access(3 * 64, AccessType::Load, 0, 0b1100).way,
              2u);
    EXPECT_TRUE(cache.access(3 * 64, AccessType::Load, 0, low).hit);
}

TEST(Cache, MaskedVictimIsTheOldestWayOfTheMask)
{
    CacheConfig cfg = tinyConfig(1, 4);
    SetAssocCache cache = makeLruCache(cfg);
    for (uint64_t b = 0; b < 4; ++b)
        cache.access(b * 64, AccessType::Load);
    cache.access(0 * 64, AccessType::Load); // LRU order now 1,2,3,0
    // The full set would evict way 1; the mask {2, 0} evicts way 2.
    const AccessResult r =
        cache.access(9 * 64, AccessType::Load, 0, 0b0101);
    EXPECT_EQ(r.way, 2u);
    EXPECT_EQ(*r.evictedBlock, 2u);
    // A full mask is the unmasked victim again: way 1.
    EXPECT_EQ(cache.access(10 * 64, AccessType::Load, 0, 0b1111).way,
              1u);
}

TEST(Cache, MaskedAccessWithoutRecencyOrderIsFatal)
{
    CacheConfig cfg = tinyConfig(64, 4);
    SetAssocCache cache(cfg, std::make_unique<RripPolicy>(
                                 cfg, RripPolicy::Mode::Dynamic));
    cache.access(0, AccessType::Load); // a full mask is fine
    EXPECT_DEATH(([&]() noexcept {
                     cache.access(64, AccessType::Load, 0, 0b0011);
                 })(),
                 "DRRIP keeps no recency order, so it cannot fill "
                 "within a way mask");
}

TEST(Cache, EmptyWayMaskIsFatal)
{
    SetAssocCache cache = makeLruCache(tinyConfig(1, 4));
    EXPECT_DEATH(([&]() noexcept {
                     cache.access(0, AccessType::Load, 0, 0);
                 })(),
                 "tiny: access with an empty way mask");
}

} // namespace
} // namespace gippr
