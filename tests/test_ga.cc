/**
 * @file
 * Tests for the search machinery: random search, the genetic
 * algorithm, hill climbing and duel-set selection.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "ga/genetic.hh"
#include "ga/hill_climb.hh"
#include "ga/random_search.hh"

namespace gippr
{
namespace
{

CacheConfig
llcCfg()
{
    CacheConfig c;
    c.name = "LLC";
    c.blockBytes = 64;
    c.assoc = 16;
    c.sizeBytes = 32 * 16 * 64; // 32 sets, 512 blocks
    return c;
}

Trace
loopTrace(uint64_t blocks, int reps, uint64_t base = 0)
{
    Trace t;
    for (int rep = 0; rep < reps; ++rep) {
        for (uint64_t b = 0; b < blocks; ++b) {
            MemRecord r;
            r.addr = (base + b) * 64;
            r.instGap = 10;
            t.append(r);
        }
    }
    return t;
}

FitnessEvaluator
makeEvaluator()
{
    std::vector<FitnessTrace> traces;
    FitnessTrace thrash;
    thrash.name = "thrash/0";
    thrash.llcTrace = std::make_shared<Trace>(loopTrace(640, 20));
    thrash.instructions = thrash.llcTrace->instructions();
    traces.push_back(thrash);
    return FitnessEvaluator(llcCfg(), std::move(traces), {});
}

TEST(RandomSearch, ProducesSortedFitness)
{
    FitnessEvaluator fe = makeEvaluator();
    auto samples = randomSearch(fe, IpvFamily::Gippr, 30, 5, 2);
    ASSERT_EQ(samples.size(), 30u);
    for (size_t i = 1; i < samples.size(); ++i)
        EXPECT_LE(samples[i - 1].fitness, samples[i].fitness);
}

TEST(RandomSearch, DeterministicForSeed)
{
    FitnessEvaluator fe = makeEvaluator();
    auto a = randomSearch(fe, IpvFamily::Gippr, 10, 7, 1);
    auto b = randomSearch(fe, IpvFamily::Gippr, 10, 7, 1);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].ipv == b[i].ipv);
        EXPECT_DOUBLE_EQ(a[i].fitness, b[i].fitness);
    }
}

TEST(RandomSearch, MostRandomVectorsLoseToLru)
{
    // The paper's Figure 1 observation: on recency-friendly traffic,
    // the bulk of the random design space underperforms LRU.  Build a
    // hot loop that LRU serves almost perfectly, lightly polluted by
    // a cold stream so replacement decisions actually happen.
    Trace t;
    Rng gen(123);
    uint64_t cold = 1 << 20;
    for (int rep = 0; rep < 40; ++rep) {
        for (uint64_t b = 0; b < 384; ++b) {
            MemRecord r;
            r.addr = b * 64;
            r.instGap = 10;
            t.append(r);
            if (gen.nextBool(0.25)) {
                MemRecord cr;
                cr.addr = (cold++) * 64;
                cr.instGap = 10;
                t.append(cr);
            }
        }
    }
    FitnessTrace ft;
    ft.name = "friendly/0";
    ft.llcTrace = std::make_shared<Trace>(std::move(t));
    ft.instructions = ft.llcTrace->instructions();
    std::vector<FitnessTrace> traces{ft};
    FitnessEvaluator fe(llcCfg(), std::move(traces), {});

    auto samples = randomSearch(fe, IpvFamily::Gippr, 40, 11, 2);
    size_t below_parity = 0;
    for (const auto &s : samples)
        if (s.fitness < 1.0)
            ++below_parity;
    EXPECT_GT(below_parity, samples.size() / 2);
}

TEST(RandomSearch, RandomIpvIsValid)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        Ipv v = randomIpv(16, rng);
        EXPECT_EQ(v.ways(), 16u);
        EXPECT_TRUE(Ipv::isValidVector(v.entries()));
    }
}

TEST(Genetic, ImprovesOverGenerations)
{
    FitnessEvaluator fe = makeEvaluator();
    GaParams params;
    params.initialPopulation = 24;
    params.population = 16;
    params.generations = 6;
    params.threads = 2;
    params.seed = 17;
    GaResult r = evolveIpv(fe, IpvFamily::Gippr, params);
    ASSERT_EQ(r.history.size(), 7u);
    EXPECT_GE(r.history.back(), r.history.front());
    EXPECT_DOUBLE_EQ(r.bestFitness, r.history.back());
}

TEST(Genetic, FindsThrashResistantVector)
{
    // On a pure thrash fitness, the GA must discover a vector that
    // clearly beats LRU (LIP-like insertion exists in the space).
    FitnessEvaluator fe = makeEvaluator();
    GaParams params;
    params.initialPopulation = 40;
    params.population = 24;
    params.generations = 10;
    params.threads = 2;
    params.seed = 23;
    GaResult r = evolveIpv(fe, IpvFamily::Gippr, params);
    EXPECT_GT(r.bestFitness, 1.3);
}

TEST(Genetic, SeedVectorsJoinPopulation)
{
    FitnessEvaluator fe = makeEvaluator();
    GaParams params;
    params.initialPopulation = 10;
    params.population = 8;
    params.generations = 1;
    params.threads = 1;
    params.seed = 29;
    params.seedIpvs = {Ipv::lruInsertion(16)};
    GaResult r = evolveIpv(fe, IpvFamily::Gippr, params);
    // The seeded LIP vector dominates a thrash-only fitness, so the
    // result must be at least as good as LIP.
    double lip = fe.evaluate(Ipv::lruInsertion(16), IpvFamily::Gippr);
    EXPECT_GE(r.bestFitness, lip - 1e-9);
}

TEST(Genetic, DeterministicForSeed)
{
    FitnessEvaluator fe = makeEvaluator();
    GaParams params;
    params.initialPopulation = 12;
    params.population = 8;
    params.generations = 3;
    params.threads = 1;
    params.seed = 31;
    GaResult a = evolveIpv(fe, IpvFamily::Gippr, params);
    GaResult b = evolveIpv(fe, IpvFamily::Gippr, params);
    EXPECT_TRUE(a.best == b.best);
    EXPECT_DOUBLE_EQ(a.bestFitness, b.bestFitness);
}

TEST(HillClimb, NeverWorsens)
{
    FitnessEvaluator fe = makeEvaluator();
    Ipv start = Ipv::lru(16);
    HillClimbResult r =
        hillClimb(fe, IpvFamily::Gippr, start, 200);
    double base = fe.evaluate(start, IpvFamily::Gippr);
    EXPECT_GE(r.bestFitness, base);
}

TEST(HillClimb, ImprovesLruOnThrash)
{
    // From the all-zero vector, flipping the insertion entry to the
    // PLRU position is a single hill-climbing move with a big payoff.
    FitnessEvaluator fe = makeEvaluator();
    HillClimbResult r =
        hillClimb(fe, IpvFamily::Gippr, Ipv::lru(16), 2000);
    EXPECT_GT(r.bestFitness, 1.05);
    EXPECT_GT(r.steps, 0u);
}

TEST(HillClimb, RespectsEvaluationBudget)
{
    FitnessEvaluator fe = makeEvaluator();
    HillClimbResult r = hillClimb(fe, IpvFamily::Gippr,
                                  Ipv::lru(16), 25);
    EXPECT_LE(r.evaluations, 25u);
}

TEST(DuelSet, FirstPickIsBestOverall)
{
    FitnessEvaluator fe = makeEvaluator();
    std::vector<Ipv> candidates = {Ipv::lru(16), Ipv::lruInsertion(16)};
    std::vector<Ipv> set =
        selectDuelSet(fe, IpvFamily::Gippr, candidates, 2);
    ASSERT_EQ(set.size(), 2u);
    // LIP wins the thrash fitness, so it must come first.
    EXPECT_TRUE(set[0] == Ipv::lruInsertion(16));
}

TEST(DuelSet, SmallerSetsArePrefixesOfTheFourVectorSet)
{
    // Three traces that reward different vectors, so the greedy
    // picks after the first are real choices.
    std::vector<FitnessTrace> traces;
    const std::pair<uint64_t, int> loops[] = {{640, 20}, {384, 30},
                                              {1200, 8}};
    for (const auto &[blocks, reps] : loops) {
        FitnessTrace ft;
        ft.name = "loop" + std::to_string(blocks) + "/0";
        ft.llcTrace = std::make_shared<Trace>(
            loopTrace(blocks, reps, blocks << 12));
        ft.instructions = ft.llcTrace->instructions();
        traces.push_back(std::move(ft));
    }
    FitnessEvaluator fe(llcCfg(), std::move(traces), {});
    std::vector<Ipv> pool = {Ipv::lru(16), Ipv::lruInsertion(16)};
    for (const SampledIpv &s : randomSearch(fe, IpvFamily::Gippr, 12, 11, 1))
        pool.push_back(s.ipv);

    const std::vector<Ipv> four =
        selectDuelSet(fe, IpvFamily::Gippr, pool, 4);
    ASSERT_EQ(four.size(), 4u);
    for (size_t k : {1u, 2u}) {
        const std::vector<Ipv> set =
            selectDuelSet(fe, IpvFamily::Gippr, pool, k);
        ASSERT_EQ(set.size(), k);
        EXPECT_TRUE(std::equal(set.begin(), set.end(), four.begin()))
            << k << "-vector set";
    }
}

TEST(DuelSet, RunPoolIsTopOfPopulationPlusSeeds)
{
    // LIP wins the thrash fitness.  The run's population holds 24
    // LRU vectors, then LIP in 25th place, outside the pool.
    FitnessEvaluator fe = makeEvaluator();
    GaResult run;
    run.best = Ipv::lru(16);
    run.finalPopulation.assign(24, {Ipv::lru(16), 1.0});
    run.finalPopulation.push_back({Ipv::lruInsertion(16), 0.5});
    GaParams params;

    const std::vector<Ipv> unseeded =
        duelSetFromRun(fe, IpvFamily::Gippr, run, params, 2);
    ASSERT_EQ(unseeded.size(), 2u);
    EXPECT_TRUE(unseeded[0] == Ipv::lru(16));
    EXPECT_TRUE(unseeded[1] == Ipv::lru(16));

    // A seed missing from the population is still offered.
    params.seedIpvs = {Ipv::lruInsertion(16)};
    const std::vector<Ipv> seeded =
        duelSetFromRun(fe, IpvFamily::Gippr, run, params, 2);
    ASSERT_EQ(seeded.size(), 2u);
    EXPECT_TRUE(seeded[0] == Ipv::lruInsertion(16));
    EXPECT_TRUE(seeded[1] == Ipv::lru(16));

    // A one-vector set is the run's best, whatever the pool holds.
    const std::vector<Ipv> one =
        duelSetFromRun(fe, IpvFamily::Gippr, run, params, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_TRUE(one[0] == Ipv::lru(16));
}

TEST(DuelSet, PadsWhenFewCandidates)
{
    FitnessEvaluator fe = makeEvaluator();
    std::vector<Ipv> set = selectDuelSet(fe, IpvFamily::Gippr,
                                         {Ipv::lru(16)}, 4);
    EXPECT_EQ(set.size(), 4u);
}

} // namespace
} // namespace gippr
