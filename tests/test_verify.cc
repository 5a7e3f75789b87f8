/**
 * @file
 * Tests for the policy verification layer (src/verify): the exhaustive
 * PLRU model checker, the reference oracles, and the differential
 * harness — including a deliberately mismatched pairing to prove the
 * harness actually detects divergence.
 */

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "core/ipv.hh"
#include "policies/lru.hh"
#include "util/rng.hh"
#include "verify/differential.hh"
#include "verify/model_check.hh"
#include "verify/oracle.hh"

namespace gippr
{
namespace
{

CacheConfig
smallConfig(unsigned assoc = 16, uint64_t sets = 16)
{
    CacheConfig cfg;
    cfg.name = "verify-test";
    cfg.blockBytes = 64;
    cfg.assoc = assoc;
    cfg.sizeBytes = sets * assoc * cfg.blockBytes;
    return cfg;
}

Trace
randomTrace(const CacheConfig &cfg, uint64_t n, uint64_t blocks,
            uint64_t seed)
{
    Rng rng(seed);
    Trace t;
    t.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        MemRecord rec;
        rec.addr = rng.nextBounded(blocks) * cfg.blockBytes;
        // Mix writeback records with demand traffic.
        if (rng.nextBool(0.25))
            rec.type = rng.nextBool(0.5) ? AccessType::Store
                                         : AccessType::Writeback;
        t.append(rec);
    }
    return t;
}

// --- model checker --------------------------------------------------

TEST(ModelCheck, ProvesInvariantsForSmallTrees)
{
    for (unsigned ways : {2u, 4u, 8u}) {
        verify::ModelCheckResult r = verify::modelCheckPlruTree(ways);
        EXPECT_TRUE(r.ok()) << ways << "-way: "
                            << (r.failures.empty()
                                    ? ""
                                    : r.failures.front().toString());
        EXPECT_EQ(r.statesChecked, uint64_t{1} << (ways - 1));
        // k*k setPosition transitions plus k promoteMru per state.
        EXPECT_EQ(r.transitionsChecked,
                  r.statesChecked * ways * (ways + 1));
        EXPECT_GT(r.checksPassed, r.transitionsChecked);
    }
}

TEST(ModelCheck, ProvesInvariantsFor16Way)
{
    verify::ModelCheckResult r = verify::modelCheckPlruTree(16);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.statesChecked, uint64_t{1} << 15);
    EXPECT_EQ(r.transitionsChecked, (uint64_t{1} << 15) * 16 * 17);
}

TEST(ModelCheck, SweepCoversPaperAssociativities)
{
    std::vector<verify::ModelCheckResult> sweep =
        verify::modelCheckSweep({2, 4});
    ASSERT_EQ(sweep.size(), 2u);
    EXPECT_EQ(sweep[0].ways, 2u);
    EXPECT_EQ(sweep[1].ways, 4u);
    EXPECT_TRUE(sweep[0].ok());
    EXPECT_TRUE(sweep[1].ok());
}

// --- oracles --------------------------------------------------------

TEST(Oracle, RecencyStackStartsAsIdentityInsertion)
{
    verify::RecencyStackOracle oracle(2, 4, Ipv::lru(4));
    // MRU-insert ways 0..3 in order: last inserted is most recent.
    for (unsigned w = 0; w < 4; ++w)
        oracle.onInsert(0, w);
    std::vector<unsigned> pos = oracle.positions(0);
    EXPECT_EQ(pos[3], 0u);
    EXPECT_EQ(pos[0], 3u);
    EXPECT_EQ(oracle.victim(0), 0u);
}

TEST(Oracle, PlruTreePositionRoundTrip)
{
    // The static helpers must agree for every (bits, way, pos) of a
    // small tree — a miniature of what the model checker proves for
    // the production tree.
    const unsigned ways = 8;
    for (uint64_t bits = 0; bits < (1u << (ways - 1)); ++bits) {
        for (unsigned way = 0; way < ways; ++way) {
            for (unsigned pos = 0; pos < ways; ++pos) {
                uint64_t nb = verify::PlruTreeOracle::withPosition(
                    bits, ways, way, pos);
                EXPECT_EQ(
                    verify::PlruTreeOracle::positionOf(nb, ways, way),
                    pos);
            }
        }
    }
}

// --- differential harness -------------------------------------------

TEST(Differential, AllMirrorsMatchOnRandomStream)
{
    const CacheConfig cfg = smallConfig();
    const Trace trace =
        randomTrace(cfg, 20'000, 2 * cfg.sizeBytes / cfg.blockBytes,
                    0xd1ff);
    for (const std::string &policy : verify::mirrorNames()) {
        verify::DifferentialResult r =
            verify::replayDifferential(policy, cfg, trace);
        EXPECT_TRUE(r.ok()) << policy << ": "
                            << (r.divergence ? r.divergence->toString()
                                             : "");
        EXPECT_EQ(r.accesses, trace.size());
        EXPECT_GT(r.comparisons, 0u);
    }
}

TEST(Differential, MatchesUnderInvalidation)
{
    const CacheConfig cfg = smallConfig();
    const Trace trace =
        randomTrace(cfg, 10'000, cfg.sizeBytes / cfg.blockBytes / 2,
                    0xcafe);
    verify::ReplayOptions opts;
    opts.invalidateEvery = 53;
    for (const std::string &policy : verify::mirrorNames()) {
        verify::DifferentialResult r =
            verify::replayDifferential(policy, cfg, trace, opts);
        EXPECT_TRUE(r.ok()) << policy;
        EXPECT_GT(r.invalidates, 0u) << policy;
    }
}

TEST(Differential, NonPowerOfTwoFriendlyGeometries)
{
    // 4- and 8-way mirrors use synthesized vectors; they must still
    // agree with their oracles.
    for (unsigned assoc : {4u, 8u}) {
        const CacheConfig cfg = smallConfig(assoc, 32);
        const Trace trace = randomTrace(
            cfg, 8'000, 2 * cfg.sizeBytes / cfg.blockBytes, assoc);
        for (const std::string &policy : verify::mirrorNames()) {
            verify::DifferentialResult r =
                verify::replayDifferential(policy, cfg, trace);
            EXPECT_TRUE(r.ok())
                << policy << " at " << assoc << " ways: "
                << (r.divergence ? r.divergence->toString() : "");
        }
    }
}

TEST(Differential, DetectsInjectedMismatch)
{
    // Pair a production LRU with a LIP oracle: same structure, wrong
    // insertion position.  The harness must flag the very first
    // comparison after an insertion into a full set.
    const CacheConfig cfg = smallConfig(4, 4);
    auto inner = std::make_unique<LruPolicy>(cfg);
    auto oracle = std::make_unique<verify::RecencyStackOracle>(
        cfg.sets(), cfg.assoc, Ipv::lruInsertion(cfg.assoc));
    verify::DifferentialChecker checker(std::move(inner),
                                        std::move(oracle),
                                        verify::recencyProbe(4));
    AccessInfo info;
    info.set = 0;
    info.type = AccessType::Load;
    checker.onInsert(0, info); // LRU says pos 0, LIP oracle says k-1
    ASSERT_TRUE(checker.divergence().has_value());
    EXPECT_EQ(checker.divergence()->kind, "positions");
    EXPECT_EQ(checker.divergence()->eventIndex, 0u);
    // The report names both models' state dumps.
    EXPECT_NE(checker.divergence()->detail.find("RecencyStackOracle"),
              std::string::npos);
}

TEST(Differential, FirstDivergenceIsSticky)
{
    const CacheConfig cfg = smallConfig(4, 4);
    auto inner = std::make_unique<LruPolicy>(cfg);
    auto oracle = std::make_unique<verify::RecencyStackOracle>(
        cfg.sets(), cfg.assoc, Ipv::lruInsertion(cfg.assoc));
    verify::DifferentialChecker checker(std::move(inner),
                                        std::move(oracle),
                                        verify::recencyProbe(4));
    AccessInfo info;
    info.set = 0;
    info.type = AccessType::Load;
    checker.onInsert(0, info);
    ASSERT_TRUE(checker.divergence().has_value());
    const uint64_t at = checker.divergence()->eventIndex;
    checker.onInsert(1, info);
    checker.onInsert(2, info);
    // Still reporting the first divergence, not a later one.
    EXPECT_EQ(checker.divergence()->eventIndex, at);
}

TEST(Differential, MirrorNamesRoundTripThroughFactory)
{
    const CacheConfig cfg = smallConfig();
    for (const std::string &name : verify::mirrorNames()) {
        auto mirror = verify::makeMirror(name, cfg);
        ASSERT_NE(mirror, nullptr) << name;
        EXPECT_FALSE(mirror->divergence().has_value()) << name;
    }
    EXPECT_THROW(verify::makeMirror("NOSUCH", cfg),
                 std::runtime_error);
}

} // namespace
} // namespace gippr
