/**
 * @file
 * Tests for the policy zoo (named factories).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/policy_zoo.hh"

namespace gippr
{
namespace
{

TEST(PolicyZoo, BaselineNamesRoundTrip)
{
    const char *names[] = {"LRU",   "PLRU",  "Random", "FIFO", "DIP",
                           "SRRIP", "BRRIP", "DRRIP",  "PDP"};
    CacheConfig cfg = CacheConfig::benchLlc();
    for (const char *n : names) {
        PolicyDef def = policyByName(n);
        EXPECT_EQ(def.name, n);
        auto policy = def.make(cfg);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), n);
    }
}

TEST(PolicyZoo, UnknownNameThrows)
{
    EXPECT_THROW(policyByName("NotAPolicy"), std::runtime_error);
    EXPECT_THROW(policyByName("BOGUS:1 2 3"), std::runtime_error);
}

TEST(PolicyZoo, GipprWithInlineVector)
{
    PolicyDef def =
        policyByName("GIPPR:0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13");
    auto policy = def.make(CacheConfig::benchLlc());
    EXPECT_EQ(policy->name(), "GIPPR");
    EXPECT_EQ(policy->stateBitsPerSet(), 15u);
}

TEST(PolicyZoo, GiplrWithInlineVector)
{
    PolicyDef def =
        policyByName("GIPLR:0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 15");
    auto policy = def.make(CacheConfig::benchLlc());
    EXPECT_EQ(policy->name(), "GIPLR");
    EXPECT_EQ(policy->stateBitsPerSet(), 64u);
}

TEST(PolicyZoo, DgipprShortcuts)
{
    for (const char *n : {"DGIPPR2", "DGIPPR4", "DGIPPR8"}) {
        PolicyDef def = policyByName(n);
        auto policy = def.make(CacheConfig::benchLlc());
        EXPECT_EQ(policy->stateBitsPerSet(), 15u);
        EXPECT_GT(policy->globalStateBits(), 0u);
    }
}

TEST(PolicyZoo, FactoriesAreReusableAcrossGeometries)
{
    PolicyDef def = policyByName("DRRIP");
    CacheConfig small;
    small.sizeBytes = 64 * 4 * 64;
    small.assoc = 4;
    small.blockBytes = 64;
    auto a = def.make(CacheConfig::benchLlc());
    auto b = def.make(small);
    EXPECT_EQ(a->stateBitsPerSet(), 32u);
    EXPECT_EQ(b->stateBitsPerSet(), 8u);
}

TEST(PolicyZoo, SpecOfMatchesFastSpec)
{
    // Every name policyByName accepts: the factory names its spec
    // (and so may run on the packed model) exactly when the def
    // carries one, and it is the same spec.
    const char *vec = "0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13";
    std::vector<std::string> names = {
        "LRU",     "LIP",     "PLRU",    "GIPLR",  "GIPPR",  "Random",
        "FIFO",    "DIP",     "SRRIP",   "BRRIP",  "DRRIP",  "PDP",
        "DGIPPR2", "DGIPPR4", "DGIPPR8", "BGIPPR", "RRIPIPV"};
    for (const char *kind : {"GIPLR:", "GIPPR:", "BGIPPR:", "RRIPIPV:"})
        names.push_back(std::string(kind) + vec);
    for (const std::string &name : names) {
        const PolicyDef def = policyByName(name);
        const fastpath::ReplaySpec *spec = fastpath::specOf(def.make);
        ASSERT_EQ(spec != nullptr, def.fastSpec.has_value()) << name;
        if (spec == nullptr)
            continue;
        EXPECT_EQ(spec->kind, def.fastSpec->kind) << name;
        EXPECT_EQ(spec->ipvs, def.fastSpec->ipvs) << name;
        EXPECT_EQ(spec->leaders, def.fastSpec->leaders) << name;
        EXPECT_EQ(spec->counterBits, def.fastSpec->counterBits) << name;
        EXPECT_EQ(spec->rrpvBits, def.fastSpec->rrpvBits) << name;
        EXPECT_EQ(spec->rripMode, def.fastSpec->rripMode) << name;
        EXPECT_EQ(spec->epsilonInv, def.fastSpec->epsilonInv) << name;
        EXPECT_EQ(spec->seed, def.fastSpec->seed) << name;
        EXPECT_EQ(spec->pdp, def.fastSpec->pdp) << name;
        EXPECT_EQ(*spec, *def.fastSpec) << name;
    }
    // The RRIP family and PDP carry specs; the rest stay scalar.
    for (const char *name : {"SRRIP", "BRRIP", "DRRIP", "PDP", "RRIPIPV"})
        EXPECT_TRUE(policyByName(name).fastSpec.has_value()) << name;
    for (const char *name : {"Random", "FIFO", "DIP", "BGIPPR"})
        EXPECT_FALSE(policyByName(name).fastSpec.has_value()) << name;
    // A lambda around a spec's factory hides the spec.
    const PolicyFactory make = policyByName("LRU").make;
    const PolicyFactory wrapped = [make](const CacheConfig &cfg) {
        return make(cfg);
    };
    EXPECT_EQ(fastpath::specOf(wrapped), nullptr);
}

TEST(PolicyZoo, OverheadComparisonMatchesPaperTable)
{
    // The paper's storage argument at 16 ways / 4MB:
    //   LRU 64 b/set, DGIPPR 15 b/set, DRRIP 32 b/set, PDP 64+ b/set.
    CacheConfig cfg = CacheConfig::paperLlc();
    EXPECT_EQ(policyByName("LRU").make(cfg)->stateBitsPerSet(), 64u);
    EXPECT_EQ(policyByName("DGIPPR4").make(cfg)->stateBitsPerSet(),
              15u);
    EXPECT_EQ(policyByName("DRRIP").make(cfg)->stateBitsPerSet(), 32u);
    EXPECT_GE(policyByName("PDP").make(cfg)->stateBitsPerSet(), 64u);
}

} // namespace
} // namespace gippr
