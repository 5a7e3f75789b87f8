/**
 * @file
 * Tests for DGIPPR (set-dueling dynamic GIPPR).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "core/dgippr.hh"
#include "core/gippr.hh"
#include "core/vectors.hh"
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
addrOf(const CacheConfig &c, uint64_t set, uint64_t tag)
{
    return ((tag << c.setShift()) | set) << c.blockShift();
}

std::vector<Ipv>
pmruVsPlru()
{
    return {Ipv::lru(16), Ipv::lruInsertion(16)};
}

TEST(Dgippr, RejectsSingleVector)
{
    CacheConfig c = cfg(64, 16);
    EXPECT_THROW(DgipprPolicy(c, {Ipv::lru(16)}, 4),
                 std::runtime_error);
}

TEST(Dgippr, RejectsMismatchedArity)
{
    CacheConfig c = cfg(64, 16);
    EXPECT_THROW(DgipprPolicy(c, {Ipv::lru(16), Ipv::lru(8)}, 4),
                 std::runtime_error);
}

TEST(Dgippr, NameReflectsVectorCount)
{
    CacheConfig c = cfg(64, 16);
    EXPECT_EQ(DgipprPolicy(c, pmruVsPlru(), 4).name(), "2-DGIPPR");
    EXPECT_EQ(DgipprPolicy(c, local_vectors::dgippr4(), 4).name(),
              "4-DGIPPR");
}

TEST(Dgippr, StorageMatchesPaperAccounting)
{
    CacheConfig c = CacheConfig::paperLlc();
    DgipprPolicy two(c, pmruVsPlru(), 32);
    EXPECT_EQ(two.stateBitsPerSet(), 15u);
    EXPECT_EQ(two.globalStateBits(), 11u);
    DgipprPolicy four(c, local_vectors::dgippr4(), 32);
    EXPECT_EQ(four.stateBitsPerSet(), 15u);
    EXPECT_EQ(four.globalStateBits(), 33u); // three 11-bit counters
}

TEST(Dgippr, ThrashingStreamSelectsLipVector)
{
    // A cyclic working set slightly larger than the cache thrashes
    // PMRU insertion but not PLRU insertion; the duel must converge
    // on the LIP-like vector (index 1).
    CacheConfig c = cfg(64, 16); // 1024-block cache
    DgipprPolicy *raw;
    auto p = std::make_unique<DgipprPolicy>(c, pmruVsPlru(), 4);
    raw = p.get();
    SetAssocCache cache(c, std::move(p));
    // 1280 blocks cycling: 1.25x capacity.
    for (int rep = 0; rep < 40; ++rep)
        for (uint64_t b = 0; b < 1280; ++b)
            cache.access(b * 64, AccessType::Load);
    EXPECT_EQ(raw->currentWinner(), 1u);
}

TEST(Dgippr, RecencyFriendlyStreamSelectsPmruVector)
{
    // A working set that fits easily prefers classic PLRU behaviour;
    // both miss equally (never), so what matters is the reverse case:
    // use a Zipf-like hot pattern where MRU insertion wins.
    CacheConfig c = cfg(64, 16);
    DgipprPolicy *raw;
    auto p = std::make_unique<DgipprPolicy>(c, pmruVsPlru(), 4);
    raw = p.get();
    SetAssocCache cache(c, std::move(p));
    // Each block is re-referenced after exactly one intervening
    // insert into its set (distance 128 blocks over 64 sets): PMRU
    // insertion keeps it resident, LIP has already evicted it from
    // the churn slot, so the duel must pick the PMRU vector.
    uint64_t next_block = 0;
    for (int i = 0; i < 200000; ++i) {
        uint64_t b = next_block++;
        cache.access(b * 64, AccessType::Load);
        if (b >= 128)
            cache.access((b - 128) * 64, AccessType::Load);
    }
    EXPECT_EQ(raw->currentWinner(), 0u);
}

TEST(Dgippr, LeaderSetsAlwaysUseOwnVector)
{
    // Construct a 2-vector policy and verify, via the public tree
    // accessor of a cloned GIPPR, that leader behaviour differs from
    // the winner on leader sets.  Indirect check: run a thrash loop;
    // even after vector 1 wins, PMRU leader sets keep missing (the
    // PSEL counter keeps moving), which only happens if leaders stay
    // on their own vector.
    CacheConfig c = cfg(64, 16);
    DgipprPolicy *raw;
    auto p = std::make_unique<DgipprPolicy>(c, pmruVsPlru(), 4);
    raw = p.get();
    SetAssocCache cache(c, std::move(p));
    for (int rep = 0; rep < 20; ++rep)
        for (uint64_t b = 0; b < 1280; ++b)
            cache.access(b * 64, AccessType::Load);
    ASSERT_EQ(raw->currentWinner(), 1u);
    uint64_t misses_before = cache.stats().misses;
    for (int rep = 0; rep < 5; ++rep)
        for (uint64_t b = 0; b < 1280; ++b)
            cache.access(b * 64, AccessType::Load);
    // Follower sets now mostly hit; residual misses come from the
    // PMRU leader sets (plus LIP churn slots).
    uint64_t delta = cache.stats().misses - misses_before;
    EXPECT_GT(delta, 0u);
    // But far fewer misses than a pure-PMRU cache would take
    // (which would miss on every access: 5 * 1280).
    EXPECT_LT(delta, 5u * 1280u / 2u);
}

TEST(Dgippr, AdaptsWhenPhaseChanges)
{
    CacheConfig c = cfg(64, 16);
    DgipprPolicy *raw;
    auto p = std::make_unique<DgipprPolicy>(c, pmruVsPlru(), 4);
    raw = p.get();
    SetAssocCache cache(c, std::move(p));
    // Phase 1: thrash -> LIP wins.
    for (int rep = 0; rep < 40; ++rep)
        for (uint64_t b = 0; b < 1280; ++b)
            cache.access(b * 64, AccessType::Load);
    EXPECT_EQ(raw->currentWinner(), 1u);
    // Phase 2: re-reference after one intervening same-set insert ->
    // PMRU wins again.
    uint64_t base = 1 << 20;
    uint64_t next_block = 0;
    for (int i = 0; i < 200000; ++i) {
        uint64_t b = base + next_block++;
        cache.access(b * 64, AccessType::Load);
        if (next_block >= 128)
            cache.access((b - 128) * 64, AccessType::Load);
    }
    EXPECT_EQ(raw->currentWinner(), 0u);
}

TEST(Dgippr, FourVectorDuelRuns)
{
    CacheConfig c = cfg(128, 16);
    SetAssocCache cache(
        c, std::make_unique<DgipprPolicy>(c, local_vectors::dgippr4(),
                                          8));
    Rng rng(83);
    for (int i = 0; i < 100000; ++i) {
        cache.access(addrOf(c, rng.nextBounded(128),
                            rng.nextBounded(32)),
                     AccessType::Load);
    }
    EXPECT_GT(cache.stats().hits, 0u);
    EXPECT_GT(cache.stats().misses, 0u);
}

TEST(Dgippr, EightVectorTournamentRuns)
{
    CacheConfig c = cfg(256, 16);
    DgipprPolicy *raw;
    auto p = std::make_unique<DgipprPolicy>(
        c, local_vectors::dgippr8(), 8);
    raw = p.get();
    SetAssocCache cache(c, std::move(p));
    EXPECT_EQ(raw->globalStateBits(), 77u); // seven 11-bit counters
    Rng rng(89);
    for (int i = 0; i < 50000; ++i) {
        cache.access(addrOf(c, rng.nextBounded(256),
                            rng.nextBounded(64)),
                     AccessType::Load);
    }
    EXPECT_LT(raw->currentWinner(), 8u);
}

TEST(Dgippr, WritebacksDoNotTrainTheDuel)
{
    CacheConfig c = cfg(64, 16);
    DgipprPolicy policy(c, pmruVsPlru(), 4);
    unsigned before = policy.currentWinner();
    AccessInfo info;
    info.set = 0; // leader sets live at low offsets
    info.type = AccessType::Writeback;
    for (int i = 0; i < 5000; ++i)
        policy.onMiss(info);
    EXPECT_EQ(policy.currentWinner(), before);
}

TEST(Dgippr, DomainsDuelIndependently)
{
    // Two domains over one tree array: the thrashing loop of
    // ThrashingStreamSelectsLipVector runs in domain 0, then the
    // stream of RecencyFriendlyStreamSelectsPmruVector in domain 1.
    // Each tournament follows only its own domain's misses.
    CacheConfig c = cfg(64, 16);
    DgipprPolicy *raw;
    auto p = std::make_unique<DgipprPolicy>(c, pmruVsPlru(), 4, 11, 2);
    raw = p.get();
    SetAssocCache cache(c, std::move(p));
    for (int rep = 0; rep < 40; ++rep)
        for (uint64_t b = 0; b < 1280; ++b)
            cache.access(b * 64, AccessType::Load, 0);
    EXPECT_EQ(raw->currentWinner(0), 1u);
    EXPECT_EQ(raw->selector(1).counterValues(),
              TournamentSelector(2).counterValues());
    EXPECT_EQ(raw->leaderMisses(1), std::vector<uint64_t>(2, 0));

    const std::vector<uint64_t> psel0 = raw->selector(0).counterValues();
    const std::vector<uint64_t> misses0 = raw->leaderMisses(0);
    uint64_t next_block = 1 << 20;
    for (int i = 0; i < 200000; ++i) {
        const uint64_t b = next_block++;
        cache.access(b * 64, AccessType::Load, 1);
        cache.access((b - 128) * 64, AccessType::Load, 1);
    }
    EXPECT_EQ(raw->currentWinner(1), 0u);
    EXPECT_EQ(raw->currentWinner(0), 1u);
    EXPECT_EQ(raw->selector(0).counterValues(), psel0);
    EXPECT_EQ(raw->leaderMisses(0), misses0);
    EXPECT_EQ(raw->globalStateBits(), 22u); // one PSEL per domain
}

TEST(Dgippr, ExtraDomainsIdleWithoutTheirAccesses)
{
    // Every access in domain 0: a three-domain policy replays exactly
    // the one-domain policy, and domains 1 and 2 never move.
    CacheConfig c = cfg(64, 16);
    auto one = std::make_unique<DgipprPolicy>(c, local_vectors::dgippr4(), 4);
    auto three = std::make_unique<DgipprPolicy>(
        c, local_vectors::dgippr4(), 4, 11, 3);
    const DgipprPolicy &a = *one;
    const DgipprPolicy &b = *three;
    SetAssocCache ca(c, std::move(one));
    SetAssocCache cb(c, std::move(three));
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        const uint64_t addr =
            addrOf(c, rng.nextBounded(64), rng.nextBounded(40));
        const AccessResult ra = ca.access(addr, AccessType::Load);
        const AccessResult rb = cb.access(addr, AccessType::Load);
        ASSERT_EQ(ra.hit, rb.hit) << i;
        ASSERT_EQ(ra.way, rb.way) << i;
    }
    EXPECT_EQ(a.currentWinner(), b.currentWinner());
    EXPECT_EQ(a.selector().counterValues(), b.selector().counterValues());
    EXPECT_EQ(a.leaderMisses(), b.leaderMisses());
    for (unsigned d = 1; d < 3; ++d) {
        EXPECT_EQ(b.selector(d).counterValues(),
                  TournamentSelector(4).counterValues());
        EXPECT_EQ(b.leaderMisses(d), std::vector<uint64_t>(4, 0));
    }
}

} // namespace
} // namespace gippr
