/**
 * @file
 * Tests for WN1 / WI vector evolution (leave-one-out methodology).
 */

#include <gtest/gtest.h>

#include "ga/crossval.hh"

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
    c.sizeBytes = 16 * 16 * 64; // 16 sets, 256 blocks
    return c;
}

Trace
loopTrace(uint64_t blocks, int reps, uint64_t base)
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

WorkloadTraces
workloadOf(const std::string &name, uint64_t blocks, uint64_t base)
{
    WorkloadTraces w;
    w.name = name;
    FitnessTrace ft;
    ft.name = name + "/0";
    ft.llcTrace = std::make_shared<Trace>(loopTrace(blocks, 24, base));
    ft.instructions = ft.llcTrace->instructions();
    w.traces.push_back(std::move(ft));
    return w;
}

std::vector<WorkloadTraces>
tinyWorkloads()
{
    // Three thrashy loops of different sizes: any held-out pair still
    // teaches anti-thrash insertion, so WN1 vectors transfer.
    return {
        workloadOf("thrash_a", 320, 0),
        workloadOf("thrash_b", 384, 1 << 16),
        workloadOf("thrash_c", 448, 1 << 17),
    };
}

GaParams
tinyParams()
{
    GaParams p;
    p.initialPopulation = 16;
    p.population = 10;
    p.generations = 3;
    p.threads = 1;
    p.seed = 5;
    p.seedIpvs = {Ipv::lruInsertion(16)};
    return p;
}

TEST(CrossVal, WiProducesRequestedSetSize)
{
    auto sets = evolveWi(llcCfg(), tinyWorkloads(), IpvFamily::Gippr,
                         2, tinyParams());
    EXPECT_EQ(sets.size(), 2u);
    for (const Ipv &v : sets)
        EXPECT_EQ(v.ways(), 16u);
}

TEST(CrossVal, WiSingleVectorBeatsLruOnThrash)
{
    auto sets = evolveWi(llcCfg(), tinyWorkloads(), IpvFamily::Gippr,
                         1, tinyParams());
    ASSERT_EQ(sets.size(), 1u);
    // Evaluate the WI vector on the full training set: must beat LRU
    // (the seeded LIP vector already does).
    std::vector<FitnessTrace> all;
    for (const auto &w : tinyWorkloads())
        all.insert(all.end(), w.traces.begin(), w.traces.end());
    FitnessEvaluator fitness(llcCfg(), std::move(all));
    EXPECT_GT(fitness.evaluate(sets[0], IpvFamily::Gippr), 1.2);
}

TEST(CrossVal, Wn1ProducesOneEntryPerWorkload)
{
    auto folds = evolveWn1(llcCfg(), tinyWorkloads(), IpvFamily::Gippr,
                           1, tinyParams());
    EXPECT_EQ(folds.size(), 3u);
    EXPECT_TRUE(folds.count("thrash_a"));
    EXPECT_TRUE(folds.count("thrash_b"));
    EXPECT_TRUE(folds.count("thrash_c"));
    for (const auto &kv : folds)
        EXPECT_EQ(kv.second.size(), 1u);
}

TEST(CrossVal, Wn1VectorsTransferToHeldOutWorkload)
{
    auto workloads = tinyWorkloads();
    auto folds = evolveWn1(llcCfg(), workloads, IpvFamily::Gippr, 1,
                           tinyParams());
    // Each fold's vector, trained without its workload, must still
    // beat LRU on that workload (the behaviours are similar, which
    // is the paper's cross-validation premise).
    for (const auto &w : workloads) {
        std::vector<FitnessTrace> held = w.traces;
        FitnessEvaluator fitness(llcCfg(), std::move(held));
        double f = fitness.evaluate(folds.at(w.name)[0],
                                    IpvFamily::Gippr);
        EXPECT_GT(f, 1.1) << w.name;
    }
}

TEST(CrossVal, Wn1RequiresTwoWorkloads)
{
    std::vector<WorkloadTraces> one = {workloadOf("solo", 320, 0)};
    EXPECT_THROW(
        evolveWn1(llcCfg(), one, IpvFamily::Gippr, 1, tinyParams()),
        std::runtime_error);
}

// The library's concurrent trace build against the sequential
// per-workload loop it replaced: the same workloads in input order,
// trace for trace and record for record.
TEST(FitnessWorkloads, MatchesSequentialPerWorkloadBuild)
{
    SuiteParams sp;
    sp.llcBlocks = 256;
    sp.accessesPerSimpoint = 2000;
    const SyntheticSuite suite(sp);
    HierarchyConfig hier;
    hier.l1 = {"L1", 4 * 1024, 8, 64};
    hier.l2 = {"L2", 8 * 1024, 8, 64};
    hier.llc = llcCfg();

    // Out of suite order, so a build that sorted would fail.
    const std::vector<std::string> subset = {"zipf_hot", "stream_pure",
                                             "loop_fit"};
    for (const std::vector<std::string> &names :
         {subset, std::vector<std::string>{}}) {
        const std::vector<std::string> want_names =
            names.empty() ? suite.names() : names;
        const std::vector<WorkloadTraces> got =
            fitnessWorkloads(suite, names, hier);
        ASSERT_EQ(got.size(), want_names.size());
        for (size_t i = 0; i < got.size(); ++i) {
            std::vector<Workload> single;
            single.push_back(
                SyntheticSuite::materialize(suite.spec(want_names[i])));
            const std::vector<FitnessTrace> want =
                buildFitnessTraces(single, hier);
            EXPECT_EQ(got[i].name, want_names[i]);
            ASSERT_EQ(got[i].traces.size(), want.size()) << want_names[i];
            for (size_t t = 0; t < want.size(); ++t) {
                EXPECT_EQ(got[i].traces[t].name, want[t].name);
                EXPECT_EQ(got[i].traces[t].instructions,
                          want[t].instructions);
                EXPECT_EQ(got[i].traces[t].llcTrace->records(),
                          want[t].llcTrace->records())
                    << want[t].name;
            }
        }
    }
}

TEST(CrossVal, FlattenExceptSkipsOnlyTheNamedWorkload)
{
    const std::vector<WorkloadTraces> workloads = tinyWorkloads();
    const auto names = [](const std::vector<FitnessTrace> &traces) {
        std::vector<std::string> out;
        for (const FitnessTrace &ft : traces)
            out.push_back(ft.name);
        return out;
    };
    EXPECT_EQ(names(flattenExcept(workloads, "")),
              (std::vector<std::string>{"thrash_a/0", "thrash_b/0",
                                        "thrash_c/0"}));
    EXPECT_EQ(names(flattenExcept(workloads, "thrash_b")),
              (std::vector<std::string>{"thrash_a/0", "thrash_c/0"}));
}

TEST(CrossVal, WiRequiresWorkloads)
{
    EXPECT_THROW(
        evolveWi(llcCfg(), {}, IpvFamily::Gippr, 1, tinyParams()),
        std::runtime_error);
}

} // namespace
} // namespace gippr
