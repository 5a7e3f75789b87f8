/**
 * @file
 * Tests for the PseudoLRU tree and its recency-stack position
 * algorithms (the paper's Figures 5, 6, 7 and 9).
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "cache/config.hh"
#include "core/dgippr.hh"
#include "core/gippr.hh"
#include "core/plru.hh"
#include "core/plru_tree.hh"
#include "util/rng.hh"

namespace gippr
{
namespace
{

TEST(PlruTree, InitialVictimIsWayZero)
{
    // All bits zero: the eviction walk goes left to way 0.
    PlruTree t(8);
    EXPECT_EQ(t.findPlru(), 0u);
}

TEST(PlruTree, PromoteMruProtectsBlock)
{
    PlruTree t(8);
    for (unsigned w = 0; w < 8; ++w) {
        t.promoteMru(w);
        EXPECT_NE(t.findPlru(), w) << w;
    }
}

TEST(PlruTree, PromotedBlockHasPositionZero)
{
    PlruTree t(16);
    for (unsigned w = 0; w < 16; ++w) {
        t.promoteMru(w);
        EXPECT_EQ(t.position(w), 0u) << w;
    }
}

TEST(PlruTree, VictimHasAllOnesPosition)
{
    PlruTree t(16);
    Rng rng(5);
    for (int trial = 0; trial < 200; ++trial) {
        for (unsigned b = 0; b < t.numBits(); ++b)
            t.setBit(b, rng.nextBool());
        unsigned victim = t.findPlru();
        EXPECT_EQ(t.position(victim), 15u);
    }
}

class PlruTreePositions : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PlruTreePositions, PositionsAreAlwaysAPermutation)
{
    const unsigned ways = GetParam();
    PlruTree t(ways);
    Rng rng(100 + ways);
    for (int trial = 0; trial < 300; ++trial) {
        for (unsigned b = 0; b < t.numBits(); ++b)
            t.setBit(b, rng.nextBool());
        std::set<unsigned> positions;
        for (unsigned w = 0; w < ways; ++w) {
            unsigned p = t.position(w);
            EXPECT_LT(p, ways);
            positions.insert(p);
        }
        ASSERT_EQ(positions.size(), ways) << "trial " << trial;
    }
}

TEST_P(PlruTreePositions, WayAtPositionInvertsPosition)
{
    const unsigned ways = GetParam();
    PlruTree t(ways);
    Rng rng(200 + ways);
    for (int trial = 0; trial < 200; ++trial) {
        for (unsigned b = 0; b < t.numBits(); ++b)
            t.setBit(b, rng.nextBool());
        for (unsigned x = 0; x < ways; ++x)
            ASSERT_EQ(t.position(t.wayAtPosition(x)), x);
    }
}

TEST_P(PlruTreePositions, SetPositionEstablishesPosition)
{
    const unsigned ways = GetParam();
    PlruTree t(ways);
    Rng rng(300 + ways);
    for (int trial = 0; trial < 500; ++trial) {
        unsigned way = static_cast<unsigned>(rng.nextBounded(ways));
        unsigned pos = static_cast<unsigned>(rng.nextBounded(ways));
        t.setPosition(way, pos);
        ASSERT_EQ(t.position(way), pos);
        // The permutation property must survive arbitrary setPosition.
        std::set<unsigned> positions;
        for (unsigned w = 0; w < ways; ++w)
            positions.insert(t.position(w));
        ASSERT_EQ(positions.size(), ways);
    }
}

TEST_P(PlruTreePositions, SetPositionZeroEqualsPromoteMru)
{
    const unsigned ways = GetParam();
    PlruTree a(ways), b(ways);
    Rng rng(400 + ways);
    for (int trial = 0; trial < 300; ++trial) {
        // Put both trees in the same random state.
        for (unsigned bit = 0; bit < a.numBits(); ++bit) {
            bool v = rng.nextBool();
            a.setBit(bit, v);
            b.setBit(bit, v);
        }
        unsigned way = static_cast<unsigned>(rng.nextBounded(ways));
        a.promoteMru(way);
        b.setPosition(way, 0);
        for (unsigned bit = 0; bit < a.numBits(); ++bit)
            ASSERT_EQ(a.bit(bit), b.bit(bit));
    }
}

TEST_P(PlruTreePositions, FindPlruEqualsWayAtLastPosition)
{
    const unsigned ways = GetParam();
    PlruTree t(ways);
    Rng rng(500 + ways);
    for (int trial = 0; trial < 300; ++trial) {
        for (unsigned b = 0; b < t.numBits(); ++b)
            t.setBit(b, rng.nextBool());
        ASSERT_EQ(t.findPlru(), t.wayAtPosition(ways - 1));
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, PlruTreePositions,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u));

TEST(PlruTree, HandDerivedFourWayPositions)
{
    // 4-way tree with bits root=1, left=0, right=1, positions derived
    // by hand from the paper's Fig. 7 rule (bit i is the i-th parent's
    // plru bit for a right child, its complement for a left child):
    //   way 0: !left=1, !root=0 -> position 01 = 1
    //   way 1:  left=0, !root=0 -> position 00 = 0 (PMRU)
    //   way 2: !right=0, root=1 -> position 10 = 2
    //   way 3:  right=1, root=1 -> position 11 = 3 (PLRU victim)
    PlruTree t(4);
    t.setBit(0, true);
    t.setBit(1, false);
    t.setBit(2, true);
    EXPECT_EQ(t.position(0), 1u);
    EXPECT_EQ(t.position(1), 0u);
    EXPECT_EQ(t.position(2), 2u);
    EXPECT_EQ(t.position(3), 3u);
    EXPECT_EQ(t.findPlru(), 3u);
}

TEST(PlruTree, SetPositionTouchesOnlyPathBits)
{
    PlruTree t(16);
    Rng rng(7);
    for (unsigned b = 0; b < t.numBits(); ++b)
        t.setBit(b, rng.nextBool());
    std::vector<bool> before(t.numBits());
    for (unsigned b = 0; b < t.numBits(); ++b)
        before[b] = t.bit(b);
    t.setPosition(5, 9);
    // Exactly the log2(16) = 4 bits on way 5's root path may change.
    unsigned changed = 0;
    for (unsigned b = 0; b < t.numBits(); ++b)
        if (t.bit(b) != before[b])
            ++changed;
    EXPECT_LE(changed, 4u);
}

TEST(PlruTree, NonPowerOfTwoGeometriesAreRejectedInEveryBuild)
{
    // A user input error, not a checked invariant: it must throw in
    // release builds too, before any tree state is used.
    EXPECT_THROW(PlruTree(0), std::runtime_error);
    EXPECT_THROW(PlruTree(3), std::runtime_error);
    EXPECT_THROW(PlruTree(512), std::runtime_error);
    CacheConfig cfg;
    cfg.sizeBytes = 3 * 64 * 64; // 64 sets at 3 ways
    cfg.assoc = 3;
    cfg.blockBytes = 64;
    EXPECT_THROW(PlruPolicy{cfg}, std::runtime_error);
    EXPECT_THROW((GipprPolicy{cfg, Ipv::lru(3)}), std::runtime_error);
    EXPECT_THROW(
        (DgipprPolicy{cfg, {Ipv::lru(3), Ipv::lruInsertion(3)}}),
        std::runtime_error);
}

TEST(PlruTree, TwoWayDegenerateCase)
{
    PlruTree t(2);
    EXPECT_EQ(t.numBits(), 1u);
    t.promoteMru(0);
    EXPECT_EQ(t.findPlru(), 1u);
    t.promoteMru(1);
    EXPECT_EQ(t.findPlru(), 0u);
}

TEST(PlruTree, PlruApproximatesLruUnderSequentialAccess)
{
    // Touch ways 0..15 in order; way 0 should then be the victim
    // (exact agreement with LRU for this simple pattern).
    PlruTree t(16);
    for (unsigned w = 0; w < 16; ++w)
        t.promoteMru(w);
    EXPECT_EQ(t.findPlru(), 0u);
}

TEST(PlruTree, VictimIsNeverMostRecentlyPromoted)
{
    PlruTree t(16);
    Rng rng(99);
    for (int step = 0; step < 2000; ++step) {
        unsigned w = static_cast<unsigned>(rng.nextBounded(16));
        t.promoteMru(w);
        ASSERT_NE(t.findPlru(), w);
    }
}

} // namespace
} // namespace gippr
