/**
 * @file
 * End-to-end integration tests: the paper's qualitative claims on a
 * scaled-down system — who beats whom, and by roughly what shape.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/replay.hh"
#include "core/dgippr.hh"
#include "core/vectors.hh"
#include "ga/fitness.hh"
#include "policies/belady.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

namespace gippr
{
namespace
{

SuiteParams
tinySuite()
{
    SuiteParams p;
    p.llcBlocks = 512;
    p.accessesPerSimpoint = 16000;
    p.baseSeed = 13;
    return p;
}

SystemParams
tinySystem()
{
    SystemParams p;
    p.hier.l1 = {"L1", 4 * 1024, 8, 64};
    p.hier.l2 = {"L2", 8 * 1024, 8, 64};
    p.hier.llc = {"LLC", 32 * 1024, 16, 64};
    return p;
}

TEST(Integration, ThrashWorkloadRanking)
{
    // On the LRU-hostile loop, the adaptive policies must clearly
    // beat LRU in end-to-end IPC.
    SyntheticSuite suite(tinySuite());
    Workload w = SyntheticSuite::materialize(suite.spec("loop_thrash"));
    SystemParams sys = tinySystem();

    SimResult lru = simulateWorkload(w, policyByName("LRU").make, sys);
    SimResult drrip =
        simulateWorkload(w, policyByName("DRRIP").make, sys);
    SimResult dgippr =
        simulateWorkload(w, policyByName("DGIPPR2").make, sys);

    EXPECT_GT(drrip.ipc, lru.ipc * 1.05);
    EXPECT_GT(dgippr.ipc, lru.ipc * 1.05);
}

TEST(Integration, FriendlyWorkloadNoRegression)
{
    // Where LRU is already fine, DGIPPR must not lose measurably
    // (the paper: >99% of LRU on all but one workload).
    SyntheticSuite suite(tinySuite());
    Workload w = SyntheticSuite::materialize(suite.spec("loop_fit"));
    SystemParams sys = tinySystem();
    SimResult lru = simulateWorkload(w, policyByName("LRU").make, sys);
    SimResult dgippr =
        simulateWorkload(w, policyByName("DGIPPR4").make, sys);
    EXPECT_GT(dgippr.ipc, lru.ipc * 0.97);
}

TEST(Integration, WorkloadLlcStatsSumTheSimpoints)
{
    // simulateWorkload's llcStats is the field-wise sum of each
    // simpoint's simulateTrace llcStats.
    SyntheticSuite suite(tinySuite());
    Workload w =
        SyntheticSuite::materialize(suite.spec("multiphase_mix"));
    ASSERT_EQ(w.simpoints().size(), 3u);
    SystemParams sys = tinySystem();
    for (const char *policy : {"LRU", "DGIPPR2"}) {
        const PolicyFactory make = policyByName(policy).make;
        CacheStats sum;
        for (const Simpoint &sp : w.simpoints())
            sum += simulateTrace(*sp.trace, make, sys).llcStats;
        const SimResult r = simulateWorkload(w, make, sys);
        EXPECT_GT(sum.accesses, 0u) << policy;
        EXPECT_EQ(r.llcStats, sum) << policy;
        EXPECT_EQ(r.llcMisses, sum.demandMisses) << policy;
    }
}

TEST(Integration, PlruTracksLruClosely)
{
    // Section 3.1: PLRU performs almost equivalently to full LRU.
    SyntheticSuite suite(tinySuite());
    SystemParams sys = tinySystem();
    for (const char *name : {"zipf_hot", "chase_small", "loop_fit"}) {
        Workload w = SyntheticSuite::materialize(suite.spec(name));
        SimResult lru =
            simulateWorkload(w, policyByName("LRU").make, sys);
        SimResult plru =
            simulateWorkload(w, policyByName("PLRU").make, sys);
        EXPECT_NEAR(plru.ipc / lru.ipc, 1.0, 0.05) << name;
    }
}

TEST(Integration, MinDominatesEveryPolicyOnLlcTraces)
{
    SyntheticSuite suite(tinySuite());
    SystemParams sys = tinySystem();
    for (const char *name : {"loop_thrash", "zipf_hot", "sd_bimodal"}) {
        Workload w = SyntheticSuite::materialize(suite.spec(name));
        const Trace &cpu = *w.simpoints()[0].trace;
        Trace llc = demandOnlyTrace(Hierarchy::filterToLlc(cpu, sys.hier));
        uint64_t min_misses = runMinMisses(sys.hier.llc, llc);
        for (const char *p :
             {"LRU", "PLRU", "DRRIP", "PDP", "DGIPPR4"}) {
            SetAssocCache cache(sys.hier.llc,
                                policyByName(p).make(sys.hier.llc));
            replayTrace(cache, llc);
            EXPECT_LE(min_misses, cache.stats().demandMisses)
                << name << "/" << p;
        }
    }
}

TEST(Integration, GipprMatchesPlruStorageBudget)
{
    // The paper's storage claim: GIPPR-family policies cost exactly
    // PLRU (15 bits/set, < 1 bit/block at 16 ways), while achieving
    // DRRIP-class miss rates on the adaptive workloads.
    CacheConfig llc = tinySystem().hier.llc;
    auto plru = policyByName("PLRU").make(llc);
    auto dgippr = policyByName("DGIPPR4").make(llc);
    EXPECT_EQ(dgippr->stateBitsPerSet(), plru->stateBitsPerSet());
    auto drrip = policyByName("DRRIP").make(llc);
    EXPECT_GT(drrip->stateBitsPerSet(),
              2 * dgippr->stateBitsPerSet() - 2);
}

TEST(Integration, FitnessTracesBuildFromSuite)
{
    SuiteParams sp = tinySuite();
    sp.accessesPerSimpoint = 6000;
    SyntheticSuite suite(sp);
    std::vector<Workload> workloads;
    workloads.push_back(
        SyntheticSuite::materialize(suite.spec("loop_thrash")));
    workloads.push_back(
        SyntheticSuite::materialize(suite.spec("stream_pure")));
    auto traces = buildFitnessTraces(workloads, tinySystem().hier);
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].name, "loop_thrash/0");
    EXPECT_GT(traces[0].llcTrace->size(), 0u);
    EXPECT_GT(traces[0].instructions, 0u);
    // The filtered trace contains at most the CPU demand references
    // plus the L2 writeback stream.
    EXPECT_LE(traces[0].llcTrace->size(),
              2 * workloads[0].simpoints()[0].trace->size());
}

TEST(Integration, DgipprAdaptsPerWorkload)
{
    // The paper's adaptivity claim: a *single* DGIPPR configuration
    // must track whichever static vector suits each workload —
    // LIP-like on the thrashing loop, PMRU-like on the recency
    // friendly pattern — landing near the better static choice on
    // both, which no single static vector does.
    // This test needs a paper-like *leader fraction* (~1.6% of sets)
    // for the duel's overhead to be representative, so it runs on a
    // 128-set LLC with a correspondingly larger workload; the PSEL is
    // narrowed since we have 48k accesses, not a billion.
    SuiteParams sp;
    sp.llcBlocks = 2048;
    sp.accessesPerSimpoint = 48000;
    sp.baseSeed = 13;
    SyntheticSuite suite(sp);
    SystemParams sys;
    sys.hier.l1 = {"L1", 4 * 1024, 8, 64};
    sys.hier.l2 = {"L2", 16 * 1024, 8, 64};
    sys.hier.llc = {"LLC", 128 * 1024, 16, 64};
    auto pmru =
        policyByName("GIPPR:0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0");
    auto lip =
        policyByName("GIPPR:0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 15");
    // Duel exactly the two archetypes this test reasons about.
    std::vector<Ipv> pair = {Ipv::lru(16), Ipv::lruInsertion(16)};
    PolicyDef duel{"2-DGIPPR",
                   [pair](const CacheConfig &cfg) {
                       return std::unique_ptr<ReplacementPolicy>(
                           std::make_unique<DgipprPolicy>(cfg, pair, 1,
                                                          7));
                   },
                   fastpath::dgipprSpec(pair, 1, 7)};

    Workload thrash =
        SyntheticSuite::materialize(suite.spec("loop_thrash"));
    double pmru_thrash = simulateWorkload(thrash, pmru.make, sys).ipc;
    double lip_thrash = simulateWorkload(thrash, lip.make, sys).ipc;
    double duel_thrash = simulateWorkload(thrash, duel.make, sys).ipc;
    EXPECT_GT(lip_thrash, pmru_thrash); // premise: LIP wins here
    EXPECT_GT(duel_thrash, pmru_thrash);
    EXPECT_GT(duel_thrash, lip_thrash * 0.8);

    Workload friendly =
        SyntheticSuite::materialize(suite.spec("zipf_hot"));
    double pmru_zipf = simulateWorkload(friendly, pmru.make, sys).ipc;
    double duel_zipf = simulateWorkload(friendly, duel.make, sys).ipc;
    EXPECT_GT(duel_zipf, pmru_zipf * 0.95);
}

TEST(Integration, StreamWorkloadInsertionPolicyMatters)
{
    // Pure streaming: everything misses regardless; miss counts tie,
    // but LIP-style insertion must not be *worse* than LRU.
    SyntheticSuite suite(tinySuite());
    Workload w = SyntheticSuite::materialize(suite.spec("stream_pure"));
    SystemParams sys = tinySystem();
    SimResult lru = simulateWorkload(w, policyByName("LRU").make, sys);
    SimResult dgippr =
        simulateWorkload(w, policyByName("DGIPPR2").make, sys);
    EXPECT_NEAR(dgippr.ipc / lru.ipc, 1.0, 0.02);
}

} // namespace
} // namespace gippr
