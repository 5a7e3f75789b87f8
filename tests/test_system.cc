/**
 * @file
 * Tests for the whole-system simulation entry points: simulateTrace's
 * packed LLC gives the scalar LLC's results bit for bit, spec-less
 * LLC policies keep pinned results, and a warmup fraction outside
 * [0, 1] is fatal.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/policy_zoo.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

namespace gippr
{
namespace
{

/** CPU traces sized to the 1MB bench LLC: a loop over more blocks
 *  than it holds (evictions) and a mix with stores (writebacks). */
std::vector<Trace>
cpuTraces()
{
    SuiteParams params;
    params.accessesPerSimpoint = 60'000;
    params.baseSeed = 29;
    SyntheticSuite suite(params);
    std::vector<Trace> traces;
    for (const char *name : {"loop_thrash", "multiphase_mix"}) {
        const Workload w = SyntheticSuite::materialize(suite.spec(name));
        traces.push_back(*w.simpoints().front().trace);
    }
    return traces;
}

/** @p make behind a lambda, which hides any spec it names. */
PolicyFactory
specless(const PolicyFactory &make)
{
    return [make](const CacheConfig &cfg) { return make(cfg); };
}

/** The packable policies at 8 ways, own 8-way vectors. */
std::vector<PolicyDef>
defs8()
{
    const Ipv a({0, 0, 1, 0, 3, 0, 1, 2, 5});
    const Ipv b({0, 1, 0, 2, 1, 4, 3, 6, 7});
    return {lruDef(),
            lipDef(),
            giplrDef("GIPLR", a),
            plruDef(),
            gipprDef("GIPPR", b),
            dgipprDef("2-DGIPPR", {Ipv::lru(8), Ipv::lruInsertion(8)}),
            dgipprDef("4-DGIPPR",
                      {Ipv::lru(8), Ipv::lruInsertion(8), a, b}),
            drripDef(),
            pdpDef()};
}

/** Run @p def on @p llc through its own factory and a spec-less
 *  lambda around it; every result field must agree. */
void
expectSameResults(const PolicyDef &def, const CacheConfig &llc,
                  const std::vector<Trace> &traces, bool packed)
{
    SystemParams params;
    params.hier.llc = llc;
    const std::string where =
        def.name + " on " + std::to_string(llc.assoc) + " ways";
    const fastpath::ReplaySpec *spec = fastpath::specOf(def.make);
    ASSERT_NE(spec, nullptr) << where;
    ASSERT_EQ(fastpath::SoaCacheModel::supports(*spec, llc), packed)
        << where;
    for (const Trace &trace : traces) {
        const SimResult got = simulateTrace(trace, def.make, params);
        const SimResult want =
            simulateTrace(trace, specless(def.make), params);
        EXPECT_EQ(got.ipc, want.ipc) << where;
        EXPECT_EQ(got.cycles, want.cycles) << where;
        EXPECT_EQ(got.instructions, want.instructions) << where;
        EXPECT_EQ(got.llcMisses, want.llcMisses) << where;
        EXPECT_EQ(got.llcMpki, want.llcMpki) << where;
        EXPECT_EQ(got.llcStats, want.llcStats) << where;
        EXPECT_GT(want.llcStats.evictions, 0u) << where;
        EXPECT_GT(want.llcStats.writebacks, 0u) << where;
    }
}

TEST(System, PackedLlcMatchesScalarLlc)
{
    const std::vector<Trace> traces = cpuTraces();
    // The LLC sees writebacks here (expectSameResults asserts some),
    // so RRIP and PDP writeback fills and hits are covered too.
    for (const char *name : {"LRU", "LIP", "GIPLR", "PLRU", "GIPPR",
                             "DGIPPR2", "DGIPPR4", "SRRIP", "BRRIP",
                             "DRRIP", "PDP", "RRIPIPV"})
        expectSameResults(policyByName(name), CacheConfig::benchLlc(),
                          traces, true);

    const CacheConfig llc8{"LLC", 512 * 1024, 8, 64};
    for (const PolicyDef &def : defs8())
        expectSameResults(def, llc8, traces, true);

    // Wider than the packed model's 64 ways: the spec'd factory falls
    // back to the scalar LLC.
    const CacheConfig llc128{"LLC", 1024 * 1024, 128, 64};
    for (const PolicyDef &def : {lruDef(), plruDef(), drripDef(), pdpDef()})
        expectSameResults(def, llc128, traces, false);
}

uint64_t
fnv1a(uint64_t h, uint64_t v)
{
    for (size_t i = 0; i < sizeof(v); ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnv1a(uint64_t h, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return fnv1a(h, bits);
}

TEST(System, SpecLessLlcResultsPinned)
{
    // Golden digest of simulateTrace for LLC policies with no fast
    // spec (they run on the scalar model): IPC, cycles and every LLC
    // statistic, on three members of the pinned suite at a 32KB
    // 16-way LLC.
    SuiteParams suite_params;
    suite_params.llcBlocks = 256;
    suite_params.accessesPerSimpoint = 2000;
    suite_params.baseSeed = 0x5eed;
    const SyntheticSuite suite(suite_params);
    SystemParams params;
    params.hier.l1 = {"L1", 4 * 1024, 8, 64};
    params.hier.l2 = {"L2", 8 * 1024, 8, 64};
    params.hier.llc = {"LLC", 32 * 1024, 16, 64};
    uint64_t h = 0xcbf29ce484222325ull;
    uint64_t bypasses = 0;
    for (const char *name : {"loop_thrash", "zipf_hot", "hotcold_scan"}) {
        const Workload w = SyntheticSuite::materialize(suite.spec(name));
        for (const char *policy : {"Random", "SHiP", "BGIPPR"}) {
            const PolicyDef def = policyByName(policy);
            ASSERT_FALSE(def.fastSpec.has_value()) << policy;
            for (const Simpoint &sp : w.simpoints()) {
                const SimResult r =
                    simulateTrace(*sp.trace, def.make, params);
                h = fnv1a(h, r.ipc);
                h = fnv1a(h, r.cycles);
                const CacheStats &s = r.llcStats;
                for (uint64_t v : {s.accesses, s.hits, s.misses,
                                   s.evictions, s.writebacks, s.bypasses,
                                   s.demandAccesses, s.demandMisses})
                    h = fnv1a(h, v);
                if (std::string(policy) == "BGIPPR")
                    bypasses += s.bypasses;
            }
        }
    }
    EXPECT_GT(bypasses, 0u);
    constexpr uint64_t kGolden = 0x1e595053cdf74a21ull;
    EXPECT_EQ(h, kGolden) << std::hex << h;
}

TEST(SystemDeathTest, WarmupFractionOutsideUnitIntervalIsFatal)
{
    Trace trace;
    trace.append(MemRecord{});
    for (const double bad : {1.5, -0.25, std::nan("")}) {
        SystemParams params;
        params.warmupFraction = bad;
        const std::string want =
            "SystemParams: warmup fraction " +
            std::string(std::isnan(bad) ? "-?nan" : std::to_string(bad)) +
            " is outside \\[0, 1\\]";
        EXPECT_DEATH(([&]() noexcept {
                         simulateTrace(trace, lruDef().make, params);
                     })(),
                     want);

        SuiteParams suite_params;
        suite_params.accessesPerSimpoint = 1000;
        const SyntheticSuite suite(suite_params);
        ExperimentConfig config;
        config.system = params;
        config.threads = 1;
        EXPECT_DEATH(([&]() noexcept {
                         runMissExperiment(suite, {lruDef()}, config);
                     })(),
                     want);
    }
}

} // namespace
} // namespace gippr
