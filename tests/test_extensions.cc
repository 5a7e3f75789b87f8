/**
 * @file
 * Tests for the future-work extensions: cache bypass (BypassGippr)
 * and the RRIP generalization of IPVs.  The multicore shared-LLC
 * extension (multicore::runSharedLlc) is tested in
 * test_multicore_sim.cc.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache.hh"
#include "core/bypass_gippr.hh"
#include "core/rrip_ipv.hh"
#include "sim/policy_zoo.hh"
#include "util/rng.hh"
#include "workloads/generators.hh"

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

// ---------------------------------------------------------------- bypass

TEST(CacheBypass, BypassedMissDoesNotAllocate)
{
    // Exercise the cache-side bypass plumbing with a minimal policy
    // that bypasses every demand miss.
    struct Bypasser : public ReplacementPolicy
    {
        unsigned victim(const AccessInfo &) override { return 0; }
        void onInsert(unsigned, const AccessInfo &) override {}
        void onHit(unsigned, const AccessInfo &) override {}
        bool shouldBypass(const AccessInfo &) override { return true; }
        std::string name() const override { return "Bypasser"; }
        size_t stateBitsPerSet() const override { return 0; }
    };
    CacheConfig c = cfg(4, 2);
    SetAssocCache cache(c, std::make_unique<Bypasser>());
    AccessResult r = cache.access(0x1000, AccessType::Load);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.bypassed);
    EXPECT_EQ(cache.stats().bypasses, 1u);
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_EQ(cache.validCount(AddressDecode(c).setIndex(0x1000)), 0u);
}

TEST(CacheBypass, WritebacksNeverBypass)
{
    struct Bypasser : public ReplacementPolicy
    {
        unsigned victim(const AccessInfo &) override { return 0; }
        void onInsert(unsigned, const AccessInfo &) override {}
        void onHit(unsigned, const AccessInfo &) override {}
        bool shouldBypass(const AccessInfo &) override { return true; }
        std::string name() const override { return "Bypasser"; }
        size_t stateBitsPerSet() const override { return 0; }
    };
    CacheConfig c = cfg(4, 2);
    SetAssocCache cache(c, std::make_unique<Bypasser>());
    AccessResult r = cache.access(0x1000, AccessType::Writeback);
    EXPECT_FALSE(r.bypassed);
    EXPECT_TRUE(cache.probe(0x1000));
}

TEST(BypassGippr, RejectsMismatchedArity)
{
    CacheConfig c = cfg(64, 8);
    EXPECT_THROW(BypassGipprPolicy(c, Ipv::lru(16)),
                 std::runtime_error);
}

TEST(BypassGippr, StorageStaysAtTreeBitsPlusOnePsel)
{
    CacheConfig c = CacheConfig::paperLlc();
    BypassGipprPolicy p(c, Ipv::lru(16));
    EXPECT_EQ(p.stateBitsPerSet(), 15u);
    EXPECT_EQ(p.globalStateBits(), 11u);
}

TEST(BypassGippr, StreamConvergesToBypass)
{
    // Pure streaming: inserting never helps, bypassing avoids
    // disturbing the (empty of reuse) cache; the insert-side leader
    // sets miss exactly as often, so the duel is decided by... both
    // sides miss every access on a pure stream, so instead use a
    // hot-set + stream mix: bypass protects the hot set from
    // pollution and wins.
    CacheConfig c = cfg(64, 16); // 1024 blocks
    BypassGipprPolicy *raw;
    auto p = std::make_unique<BypassGipprPolicy>(c, Ipv::lru(16), 32,
                                                 4, 9, 7);
    raw = p.get();
    SetAssocCache cache(c, std::move(p));
    Rng rng(9);
    uint64_t cold = 1 << 20;
    for (int i = 0; i < 400000; ++i) {
        // Hot block re-referenced at distance ~ 1.5x assoc within its
        // set; cold pollution in between.
        uint64_t hot = rng.nextBounded(1024);
        cache.access(hot * 64, AccessType::Load);
        cache.access((cold++) * 64, AccessType::Load);
    }
    EXPECT_TRUE(raw->followersBypass());
    EXPECT_GT(cache.stats().bypasses, 0u);
}

TEST(BypassGippr, ReuseFriendlyStaysOnInsert)
{
    // Every block re-referenced shortly after insertion: bypassing
    // forfeits those hits, so the duel must stay on the insert side.
    CacheConfig c = cfg(64, 16);
    BypassGipprPolicy *raw;
    auto p = std::make_unique<BypassGipprPolicy>(c, Ipv::lru(16), 32,
                                                 4, 9, 7);
    raw = p.get();
    SetAssocCache cache(c, std::move(p));
    uint64_t b = 0;
    for (int i = 0; i < 300000; ++i) {
        cache.access(b * 64, AccessType::Load);
        if (b >= 128)
            cache.access((b - 128) * 64, AccessType::Load);
        ++b;
    }
    EXPECT_FALSE(raw->followersBypass());
}

// ------------------------------------------------------------- RRIP IPV

TEST(RripIpv, SrripVectorMatchesSrrip)
{
    // The SRRIP point of the IPV-RRIP space must reproduce SRRIP's
    // decisions exactly.
    CacheConfig c = cfg(16, 8);
    SetAssocCache a(c, std::make_unique<RripIpvPolicy>(
                           c, RripIpvPolicy::srripVector(), 2));
    SetAssocCache b(c, policyByName("SRRIP").make(c));
    Rng rng(11);
    for (int i = 0; i < 30000; ++i) {
        uint64_t addr = rng.nextBounded(256) * 64;
        AccessResult ra = a.access(addr, AccessType::Load);
        AccessResult rb = b.access(addr, AccessType::Load);
        ASSERT_EQ(ra.hit, rb.hit) << i;
        if (ra.evictedBlock) {
            ASSERT_TRUE(rb.evictedBlock.has_value());
            ASSERT_EQ(*ra.evictedBlock, *rb.evictedBlock);
        }
    }
}

TEST(RripIpv, RejectsWrongArity)
{
    CacheConfig c = cfg(16, 8);
    // 2-bit RRPVs need 5 entries; an associativity-sized vector is
    // wrong.
    EXPECT_THROW(RripIpvPolicy(c, Ipv::lru(8), 2),
                 std::runtime_error);
}

TEST(RripIpv, InsertionValueHonored)
{
    CacheConfig c = cfg(16, 4);
    RripIpvPolicy *raw;
    auto p = std::make_unique<RripIpvPolicy>(c, Ipv::parse("0 0 0 0 3"),
                                             2);
    raw = p.get();
    SetAssocCache cache(c, std::move(p));
    cache.access(0, AccessType::Load);
    EXPECT_EQ(raw->rrpv(0, 0), 3u);
}

TEST(RripIpv, GradualPromotionVector)
{
    // Frequency-style: each hit promotes one level.
    CacheConfig c = cfg(16, 4);
    RripIpvPolicy *raw;
    auto p = std::make_unique<RripIpvPolicy>(c, Ipv::parse("0 0 1 2 3"),
                                             2);
    raw = p.get();
    SetAssocCache cache(c, std::move(p));
    cache.access(0, AccessType::Load);
    EXPECT_EQ(raw->rrpv(0, 0), 3u);
    cache.access(0, AccessType::Load);
    EXPECT_EQ(raw->rrpv(0, 0), 2u);
    cache.access(0, AccessType::Load);
    EXPECT_EQ(raw->rrpv(0, 0), 1u);
    cache.access(0, AccessType::Load);
    EXPECT_EQ(raw->rrpv(0, 0), 0u);
    cache.access(0, AccessType::Load);
    EXPECT_EQ(raw->rrpv(0, 0), 0u);
}

TEST(RripIpv, StateBitsMatchRrpvWidth)
{
    CacheConfig c = CacheConfig::paperLlc();
    RripIpvPolicy p(c, RripIpvPolicy::srripVector(), 2);
    EXPECT_EQ(p.stateBitsPerSet(), 32u);
}

} // namespace
} // namespace gippr
