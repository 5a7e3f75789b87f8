/**
 * @file
 * Tests for the synthetic workload generators.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "workloads/generators.hh"

namespace gippr
{
namespace
{

GenParams
gp()
{
    GenParams p;
    p.meanGap = 4;
    p.writeFrac = 0.25;
    p.regionBase = 1000;
    return p;
}

TEST(StreamGenerator, NeverRepeatsBeforeWrap)
{
    StreamGenerator g(gp(), 1, 100000);
    Rng rng(1);
    std::unordered_set<uint64_t> seen;
    for (int i = 0; i < 50000; ++i) {
        MemRecord r = g.next(rng);
        EXPECT_TRUE(seen.insert(r.addr).second) << i;
    }
}

TEST(StreamGenerator, HonorsStride)
{
    StreamGenerator g(gp(), 4, 1000000);
    Rng rng(1);
    MemRecord a = g.next(rng);
    MemRecord b = g.next(rng);
    EXPECT_EQ(b.addr - a.addr, 4u * 64u);
}

TEST(StreamGenerator, WrapsAtRegionEnd)
{
    StreamGenerator g(gp(), 1, 10);
    Rng rng(1);
    std::set<uint64_t> blocks;
    for (int i = 0; i < 30; ++i)
        blocks.insert(g.next(rng).addr / 64);
    EXPECT_EQ(blocks.size(), 10u);
}

TEST(LoopGenerator, CyclesExactWorkingSet)
{
    LoopGenerator g(gp(), 16);
    Rng rng(2);
    std::set<uint64_t> blocks;
    for (int i = 0; i < 64; ++i)
        blocks.insert(g.next(rng).addr / 64);
    EXPECT_EQ(blocks.size(), 16u);
}

TEST(LoopGenerator, PeriodicOrder)
{
    LoopGenerator g(gp(), 8);
    Rng rng(3);
    std::vector<uint64_t> first, second;
    for (int i = 0; i < 8; ++i)
        first.push_back(g.next(rng).addr);
    for (int i = 0; i < 8; ++i)
        second.push_back(g.next(rng).addr);
    EXPECT_EQ(first, second);
}

TEST(PointerChase, VisitsEveryNodeBeforeRepeating)
{
    // Sattolo permutation: a single cycle over all nodes.
    PointerChaseGenerator g(gp(), 64, 777);
    Rng rng(4);
    std::set<uint64_t> blocks;
    for (int i = 0; i < 64; ++i)
        blocks.insert(g.next(rng).addr / 64);
    EXPECT_EQ(blocks.size(), 64u);
    // The 65th access revisits the start of the cycle.
    std::set<uint64_t> again;
    for (int i = 0; i < 64; ++i)
        again.insert(g.next(rng).addr / 64);
    EXPECT_EQ(blocks, again);
}

TEST(PointerChase, DifferentSeedsDifferentOrders)
{
    PointerChaseGenerator a(gp(), 32, 1), b(gp(), 32, 2);
    Rng rng(5);
    Rng rng2(5);
    int same = 0;
    for (int i = 0; i < 32; ++i)
        if (a.next(rng).addr == b.next(rng2).addr)
            ++same;
    EXPECT_LT(same, 8);
}

TEST(ZipfGenerator, SkewsTowardFewBlocks)
{
    ZipfGenerator g(gp(), 10000, 1.0, 9);
    Rng rng(6);
    std::unordered_map<uint64_t, int> counts;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[g.next(rng).addr];
    // Top block should absorb far more than 1/10000 of accesses.
    int max_count = 0;
    for (const auto &kv : counts)
        max_count = std::max(max_count, kv.second);
    EXPECT_GT(max_count, n / 100);
}

TEST(HotColdGenerator, RespectsHotFraction)
{
    GenParams p = gp();
    HotColdGenerator g(p, 100, 0.7, 100000);
    Rng rng(7);
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        MemRecord r = g.next(rng);
        uint64_t block = r.addr / 64;
        if (block < p.regionBase + 100)
            ++hot;
    }
    EXPECT_NEAR(static_cast<double>(hot) / n, 0.7, 0.02);
}

TEST(HotColdGenerator, ColdStreamIsSequentialAndDisjoint)
{
    GenParams p = gp();
    HotColdGenerator g(p, 100, 0.0, 1000);
    Rng rng(8);
    MemRecord a = g.next(rng);
    MemRecord b = g.next(rng);
    EXPECT_EQ(b.addr - a.addr, 64u);
    EXPECT_GE(a.addr / 64, p.regionBase + 100);
}

TEST(StencilGenerator, EmitsThreeRowNeighbours)
{
    GenParams p = gp();
    StencilGenerator g(p, 16, 8);
    Rng rng(9);
    // Skip row 0 (its north neighbour wraps to the last row).
    for (int i = 0; i < 3 * 16; ++i)
        g.next(rng);
    MemRecord north = g.next(rng);
    MemRecord center = g.next(rng);
    MemRecord south = g.next(rng);
    uint64_t row_bytes = 16 * 64;
    EXPECT_EQ(center.addr - north.addr, row_bytes);
    EXPECT_EQ(south.addr - center.addr, row_bytes);
}

TEST(SdProfile, ShortDistancesProduceReuse)
{
    GenParams p = gp();
    SdProfileGenerator g(p, {{1, 4, 10.0}}, 1.0);
    Rng rng(10);
    std::unordered_map<uint64_t, int> counts;
    for (int i = 0; i < 10000; ++i)
        ++counts[g.next(rng).addr];
    // With reuse dominating 10:1, the trace must revisit blocks.
    EXPECT_LT(counts.size(), 3000u);
}

TEST(SdProfile, PureNewWeightIsAllCompulsory)
{
    GenParams p = gp();
    SdProfileGenerator g(p, {{1, 4, 0.0}}, 1.0);
    Rng rng(11);
    std::unordered_set<uint64_t> seen;
    for (int i = 0; i < 5000; ++i)
        EXPECT_TRUE(seen.insert(g.next(rng).addr).second);
}

TEST(SdProfile, ReuseDistanceWithinBand)
{
    GenParams p = gp();
    const uint64_t lo = 10, hi = 20;
    SdProfileGenerator g(p, {{lo, hi, 5.0}}, 1.0);
    Rng rng(12);
    // Track last position each block was emitted.
    std::unordered_map<uint64_t, uint64_t> last;
    uint64_t idx = 0;
    int checked = 0, below_lo = 0;
    for (int i = 0; i < 20000; ++i) {
        MemRecord r = g.next(rng);
        auto it = last.find(r.addr);
        if (it != last.end()) {
            uint64_t dist = idx - it->second;
            // The generator targets a slot at distance in [lo, hi];
            // the block in that slot may also have been re-emitted
            // more recently, so the *observed* distance can fall
            // short occasionally, but never exceed hi.
            EXPECT_LE(dist, hi);
            if (dist < lo)
                ++below_lo;
            ++checked;
        }
        last[r.addr] = idx;
        ++idx;
    }
    EXPECT_GT(checked, 1000);
    EXPECT_LT(below_lo, checked / 3);
}

TEST(PhasedGenerator, SwitchesBetweenChildren)
{
    GenParams pa = gp();
    GenParams pb = gp();
    pb.regionBase = 1u << 20;
    std::vector<PhasedGenerator::Phase> phases;
    phases.push_back({std::make_unique<LoopGenerator>(pa, 4), 10});
    phases.push_back({std::make_unique<LoopGenerator>(pb, 4), 10});
    PhasedGenerator g(std::move(phases));
    Rng rng(13);
    int in_a = 0, in_b = 0;
    for (int i = 0; i < 40; ++i) {
        uint64_t block = g.next(rng).addr / 64;
        if (block < (1u << 20))
            ++in_a;
        else
            ++in_b;
    }
    EXPECT_EQ(in_a, 20);
    EXPECT_EQ(in_b, 20);
}

TEST(MixGenerator, WeightsRespected)
{
    GenParams pa = gp();
    GenParams pb = gp();
    pb.regionBase = 1u << 20;
    std::vector<MixGenerator::Component> comps;
    comps.push_back({std::make_unique<LoopGenerator>(pa, 4), 3.0});
    comps.push_back({std::make_unique<LoopGenerator>(pb, 4), 1.0});
    MixGenerator g(std::move(comps));
    Rng rng(14);
    int in_a = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (g.next(rng).addr / 64 < (1u << 20))
            ++in_a;
    EXPECT_NEAR(static_cast<double>(in_a) / n, 0.75, 0.02);
}

TEST(Generators, WriteFractionRoughlyHonored)
{
    GenParams p = gp();
    p.writeFrac = 0.4;
    LoopGenerator g(p, 64);
    Rng rng(15);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (g.next(rng).type == AccessType::Store)
            ++writes;
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.4, 0.02);
}

TEST(Generators, InstGapMeanApproximatesParam)
{
    GenParams p = gp();
    p.meanGap = 10;
    LoopGenerator g(p, 64);
    Rng rng(16);
    uint64_t total = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        total += g.next(rng).instGap;
    EXPECT_NEAR(static_cast<double>(total) / n, 10.0, 1.0);
}

TEST(Generators, GenerateTraceCollectsExactCount)
{
    GenParams p = gp();
    LoopGenerator g(p, 8);
    Rng rng(17);
    Trace t = generateTrace(g, 1234, rng);
    EXPECT_EQ(t.size(), 1234u);
    EXPECT_GT(t.instructions(), 1234u);
}

} // namespace
} // namespace gippr
