/**
 * @file
 * Tests for the online policy-selection subsystem (sim/select).
 *
 * Covers the determinism contract (same seed -> byte-identical
 * reports; scalar vs fastpath lock-step equality; shared 1-core vs
 * single-trace bit-identity), the degenerate single-arm case (bit-
 * identical to a static replay), drift detection (fires on synthetic
 * change-points, stays quiet on stationary traffic), the phase-shift
 * workload family (golden digest + regime-boundary invariants), and
 * the headline acceptance claims: on the phase-shift family the dUCB
 * selector beats every static library policy in aggregate, and on
 * stationary workloads it stays within 2% of the best static choice.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/config.hh"
#include "sim/fastpath/engine.hh"
#include "sim/fastpath/scalar_model.hh"
#include "sim/multicore/mix.hh"
#include "sim/multicore/schedule.hh"
#include "sim/select/engine.hh"
#include "sim/select/report.hh"
#include "sim/select/select.hh"
#include "workloads/suite.hh"

namespace gippr
{
namespace
{

using select::Backend;
using select::SelectConfig;
using select::SelectResult;
using select::StaticOracleRow;

/** 64 KB, 16-way, 64 B blocks: 1024 blocks over 64 sets. */
CacheConfig
llcCfg()
{
    CacheConfig c;
    c.name = "LLC";
    c.sizeBytes = 64 * 1024;
    c.assoc = 16;
    c.blockBytes = 64;
    return c;
}

constexpr uint64_t kAccesses = 48'000;

SuiteParams
testParams()
{
    SuiteParams p;
    p.llcBlocks = 1024; // generators scaled to llcCfg()
    p.accessesPerSimpoint = kAccesses;
    p.baseSeed = 0x5eed;
    return p;
}

/** Materialized first-simpoint trace of a suite or family workload. */
std::shared_ptr<const Trace>
rawTrace(const std::string &name,
         const SuiteParams &params = testParams())
{
    auto find = [&](const std::vector<WorkloadSpec> &specs)
        -> const WorkloadSpec * {
        for (const WorkloadSpec &s : specs)
            if (s.name == name)
                return &s;
        return nullptr;
    };
    const SyntheticSuite suite(params);
    const WorkloadSpec *spec = find(suite.specs());
    const std::vector<WorkloadSpec> kv = kvCacheFamily(params);
    if (spec == nullptr)
        spec = find(kv);
    const std::vector<WorkloadSpec> ps = phaseShiftFamily(params);
    if (spec == nullptr)
        spec = find(ps);
    if (spec == nullptr)
        throw std::runtime_error("no such workload: " + name);
    const Workload w = SyntheticSuite::materialize(*spec);
    return w.simpoints().front().trace;
}

const std::vector<std::string> &
phaseShiftNames()
{
    static const std::vector<std::string> names = {
        "ps_quad", "ps_loop_zipf", "ps_zipf_drift", "ps_calm_storm"};
    return names;
}

/** The selector config the behavioural tests run. */
SelectConfig
testConfig()
{
    SelectConfig cfg;
    cfg.epochLength = 1024;
    return cfg;
}

std::vector<PolicyDef>
testLibrary()
{
    return select::parseLibrary("LRU,LIP,PLRU,GIPPR");
}

size_t
warmupOf(const Trace &trace)
{
    return trace.size() / 8;
}

std::string
reportDump(const std::string &workload, const SelectConfig &cfg,
           const SelectResult &res,
           const std::vector<StaticOracleRow> &oracle)
{
    select::SelectReportInputs in;
    in.binary = "test_select";
    in.workload = workload;
    in.coreWorkloads = {workload};
    in.cfg = cfg;
    in.llc = llcCfg();
    in.result = res;
    in.oracle = oracle;
    in.deterministic = true;
    return select::buildSelectReport(in).toJson().dump();
}

TEST(Select, SingleArmBitIdenticalToStaticReplay)
{
    const auto trace = rawTrace("ps_quad");
    const size_t warmup = warmupOf(*trace);
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib = select::parseLibrary("GIPPR");
    const SelectConfig cfg = testConfig();

    const SelectResult fast = select::runSelect(
        lib, cfg, llc, *trace, warmup, Backend::Fast);
    const SelectResult scalar = select::runSelect(
        lib, cfg, llc, *trace, warmup, Backend::Scalar);
    EXPECT_EQ(fast, scalar);
    EXPECT_EQ(fast.switches, 0u);
    EXPECT_EQ(fast.driftResets, 0u);

    const fastpath::ReplayStats replay =
        fastpath::defaultReplayEngine().replay(
            *lib[0].fastSpec, llc, *trace, warmup);
    EXPECT_EQ(fast.measured, replay.measured);
    EXPECT_EQ(fast.total, replay.total);
}

TEST(Select, SpecLessArmRunsScalar)
{
    // FIFO has no fast spec, so any library holding it serves on the
    // scalar backend; a single-arm run must still equal its static
    // replay.
    const auto trace = rawTrace("ps_quad");
    const size_t warmup = warmupOf(*trace);
    const CacheConfig llc = llcCfg();
    EXPECT_EQ(select::resolveBackend(select::parseLibrary("LRU,FIFO"),
                                     llc, Backend::Fast),
              Backend::Scalar);
    const std::vector<PolicyDef> lib = {fifoDef()};
    const SelectResult res = select::runSelect(lib, testConfig(), llc,
                                               *trace, warmup);
    const fastpath::ReplayEngine &engine = fastpath::defaultReplayEngine();
    EXPECT_EQ(res.measured,
              replayPolicies(lib, llc, *trace, warmup, engine).at(0));
    EXPECT_EQ(res.total, replayPolicies(lib, llc, *trace, 0, engine).at(0));
}

TEST(Select, StaticOracleMixedLibraryMatchesPerArmReplay)
{
    // The static oracle replays a library in one batched call: packed
    // arms through the backend's engine in one pass, spec-less arms on
    // ScalarModel.  Every row must equal its arm replayed alone, under
    // both backends.
    const auto trace = rawTrace("ps_loop_zipf");
    const size_t warmup = warmupOf(*trace);
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib =
        select::parseLibrary("LRU,FIFO,GIPPR,Random,DGIPPR4,PLRU,DRRIP,"
                             "BGIPPR,PDP");
    const fastpath::ScalarReplayEngine scalar;
    for (Backend backend : {Backend::Fast, Backend::Scalar}) {
        const fastpath::ReplayEngine &engine =
            backend == Backend::Fast ? fastpath::defaultReplayEngine()
                                     : scalar;
        const std::vector<StaticOracleRow> rows =
            select::staticOracle(lib, llc, *trace, warmup, backend);
        ASSERT_EQ(rows.size(), lib.size());
        for (size_t i = 0; i < lib.size(); ++i) {
            fastpath::CounterBank want;
            if (lib[i].fastSpec) {
                want = engine.replay(*lib[i].fastSpec, llc, *trace, warmup)
                           .measured;
            } else {
                fastpath::ScalarModel model(llc, lib[i].make(llc));
                want = fastpath::replayInOrder(model, *trace, warmup)
                           .measured;
            }
            EXPECT_EQ(rows[i].name, lib[i].name);
            EXPECT_EQ(rows[i].measured, want)
                << lib[i].name << " backend " << engine.name();
        }
    }
}

TEST(Select, DeterministicSameSeedByteIdenticalReports)
{
    const auto trace = rawTrace("ps_loop_zipf");
    const size_t warmup = warmupOf(*trace);
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib = testLibrary();
    for (const char *bandit : {"ducb", "egreedy"}) {
        SelectConfig cfg = testConfig();
        cfg.kind = select::parseBanditKind(bandit);
        const SelectResult once =
            select::runSelect(lib, cfg, llc, *trace, warmup);
        const SelectResult again =
            select::runSelect(lib, cfg, llc, *trace, warmup);
        EXPECT_EQ(once, again) << bandit;
        const auto oracle =
            select::staticOracle(lib, llc, *trace, warmup);
        EXPECT_EQ(reportDump("ps_loop_zipf", cfg, once, oracle),
                  reportDump("ps_loop_zipf", cfg, again, oracle))
            << bandit;
    }
}

TEST(SelectFastpathEquiv, ScalarVsFastLockStep)
{
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib = testLibrary();
    for (const std::string &name : phaseShiftNames()) {
        const auto trace = rawTrace(name);
        const size_t warmup = warmupOf(*trace);
        for (const char *bandit : {"ducb", "egreedy"}) {
            SelectConfig cfg = testConfig();
            cfg.kind = select::parseBanditKind(bandit);
            const SelectResult fast = select::runSelect(
                lib, cfg, llc, *trace, warmup, Backend::Fast);
            const SelectResult scalar = select::runSelect(
                lib, cfg, llc, *trace, warmup, Backend::Scalar);
            EXPECT_EQ(fast, scalar) << name << " " << bandit;
        }
    }
}

TEST(SelectFastpathEquiv, RripPdpLibraryRunsPackedAndMatchesScalar)
{
    // RRIP and PDP arms carry specs, so the library resolves to the
    // packed backend; both backends must still agree exactly.
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib =
        select::parseLibrary("LRU,DRRIP,PDP");
    ASSERT_EQ(select::resolveBackend(lib, llc, Backend::Fast),
              Backend::Fast);
    for (const std::string &name : phaseShiftNames()) {
        const auto trace = rawTrace(name);
        const size_t warmup = warmupOf(*trace);
        const SelectConfig cfg = testConfig();
        const SelectResult fast = select::runSelect(
            lib, cfg, llc, *trace, warmup, Backend::Fast);
        const SelectResult scalar = select::runSelect(
            lib, cfg, llc, *trace, warmup, Backend::Scalar);
        EXPECT_EQ(fast, scalar) << name;
        const auto oracle_fast = select::staticOracle(
            lib, llc, *trace, warmup, Backend::Fast);
        const auto oracle_scalar = select::staticOracle(
            lib, llc, *trace, warmup, Backend::Scalar);
        ASSERT_EQ(oracle_fast.size(), oracle_scalar.size());
        for (size_t a = 0; a < oracle_fast.size(); ++a)
            EXPECT_EQ(oracle_fast[a].measured, oracle_scalar[a].measured)
                << name << " " << oracle_fast[a].name;
    }
}

TEST(SelectFastpathEquiv, ReportByteIdentityAcrossBackends)
{
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib = testLibrary();
    const auto trace = rawTrace("ps_quad");
    const size_t warmup = warmupOf(*trace);
    const SelectConfig cfg = testConfig();
    const SelectResult fast = select::runSelect(
        lib, cfg, llc, *trace, warmup, Backend::Fast);
    const SelectResult scalar = select::runSelect(
        lib, cfg, llc, *trace, warmup, Backend::Scalar);
    const auto oracle_fast = select::staticOracle(
        lib, llc, *trace, warmup, Backend::Fast);
    const auto oracle_scalar = select::staticOracle(
        lib, llc, *trace, warmup, Backend::Scalar);
    EXPECT_EQ(reportDump("ps_quad", cfg, fast, oracle_fast),
              reportDump("ps_quad", cfg, scalar, oracle_scalar));
}

TEST(SelectMulticore, OneCoreSharedBitIdenticalToSingle)
{
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib = testLibrary();
    const SelectConfig cfg = testConfig();
    const double fraction = 1.0 / 3.0;

    multicore::CoreStream cs;
    cs.workload = "ps_quad";
    cs.trace = rawTrace("ps_quad");
    const std::vector<multicore::CoreStream> streams = {cs};

    for (const auto schedule : {multicore::Schedule::RoundRobin,
                                multicore::Schedule::Weighted}) {
        const SelectResult shared = select::runSelectShared(
            streams, schedule, lib, cfg, llc, fraction);
        const Trace merged = select::mergedTrace(streams, schedule);
        const auto warmup = static_cast<size_t>(
            static_cast<double>(merged.size()) * fraction);
        const SelectResult single = select::runSelect(
            lib, cfg, llc, merged, warmup);
        EXPECT_EQ(shared, single);
    }
}

TEST(SelectMulticore, MultiCoreDeterministicAcrossBackends)
{
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib = testLibrary();
    const SelectConfig cfg = testConfig();

    multicore::CoreStream a;
    a.workload = "ps_quad";
    a.trace = rawTrace("ps_quad");
    a.weight = 2;
    multicore::CoreStream b;
    b.workload = "zipf_hot";
    b.trace = rawTrace("zipf_hot");
    const std::vector<multicore::CoreStream> streams = {a, b};

    for (const auto schedule : {multicore::Schedule::RoundRobin,
                                multicore::Schedule::Weighted}) {
        const SelectResult fast = select::runSelectShared(
            streams, schedule, lib, cfg, llc, 1.0 / 3.0,
            Backend::Fast);
        const SelectResult scalar = select::runSelectShared(
            streams, schedule, lib, cfg, llc, 1.0 / 3.0,
            Backend::Scalar);
        EXPECT_EQ(fast, scalar);
        ASSERT_EQ(fast.coreMeasured.size(), 2u);
        // Per-core attribution must add up to the totals.
        fastpath::CounterBank sum;
        sum += fast.coreMeasured[0];
        sum += fast.coreMeasured[1];
        EXPECT_EQ(sum, fast.measured);
    }
}

TEST(Select, DriftResetFiresOnChangePointNotOnStationary)
{
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib = testLibrary();
    const SelectConfig cfg = testConfig();

    // Regime changes (including ps_zipf_drift's pure region shift,
    // where only the working-set signature moves) must fire at least
    // one reset each.
    for (const std::string &name :
         {std::string("ps_quad"), std::string("ps_zipf_drift")}) {
        const auto trace = rawTrace(name);
        const SelectResult res = select::runSelect(
            lib, cfg, llc, *trace, warmupOf(*trace));
        EXPECT_GE(res.driftResets, 1u) << name;
    }

    // Stationary traffic must not: single-regime suite workloads.
    for (const std::string &name :
         {std::string("zipf_hot"), std::string("loop_thrash"),
          std::string("stream_pure")}) {
        const auto trace = rawTrace(name);
        const SelectResult res = select::runSelect(
            lib, cfg, llc, *trace, warmupOf(*trace));
        EXPECT_EQ(res.driftResets, 0u) << name;
    }
}

TEST(Select, RegretBoundedOnPhaseShiftFamily)
{
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib = testLibrary();
    const SelectConfig cfg = testConfig();
    for (const std::string &name : phaseShiftNames()) {
        const auto trace = rawTrace(name);
        const size_t warmup = warmupOf(*trace);
        const SelectResult res =
            select::runSelect(lib, cfg, llc, *trace, warmup);
        const auto oracle =
            select::staticOracle(lib, llc, *trace, warmup);
        const size_t best = select::bestStaticIndex(oracle);
        const double best_misses = static_cast<double>(
            oracle[best].measured.demandMisses);
        // Regret stays within 10% of the best static policy's misses
        // on every family member (it is often negative; the aggregate
        // test below demands the win).
        EXPECT_LE(static_cast<double>(res.measured.demandMisses),
                  1.10 * best_misses)
            << name << " best=" << oracle[best].name;
    }
}

TEST(Select, DUcbBeatsEveryStaticAggregateOnPhaseShiftFamily)
{
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib = testLibrary();
    const SelectConfig cfg = testConfig();

    uint64_t selector = 0;
    std::vector<uint64_t> statics(lib.size(), 0);
    for (const std::string &name : phaseShiftNames()) {
        const auto trace = rawTrace(name);
        const size_t warmup = warmupOf(*trace);
        const SelectResult res =
            select::runSelect(lib, cfg, llc, *trace, warmup);
        selector += res.measured.demandMisses;
        const auto oracle =
            select::staticOracle(lib, llc, *trace, warmup);
        for (size_t a = 0; a < oracle.size(); ++a)
            statics[a] += oracle[a].measured.demandMisses;
    }
    for (size_t a = 0; a < lib.size(); ++a) {
        EXPECT_LT(selector, statics[a])
            << "selector " << selector << " vs static " << lib[a].name
            << " " << statics[a];
    }
}

TEST(Select, WithinTwoPercentOfBestStaticOnStationaryWorkloads)
{
    const CacheConfig llc = llcCfg();
    const std::vector<PolicyDef> lib = testLibrary();
    const SelectConfig cfg = testConfig();
    for (const std::string &name :
         {std::string("zipf_hot"), std::string("loop_thrash"),
          std::string("stream_pure"), std::string("hotcold_stream")}) {
        // Steady-state claim, so run longer than the other tests and
        // measure past the CLI's default 1/3 warmup: the selector
        // pays a one-time cost when it commits (its incoming main
        // model starts empty and converges toward the static-replay
        // content over many epochs), and that transient is the regret
        // test's business, not this one's.
        SuiteParams params = testParams();
        params.accessesPerSimpoint = 4 * kAccesses;
        const auto trace = rawTrace(name, params);
        const size_t warmup = trace->size() / 3;
        const SelectResult res =
            select::runSelect(lib, cfg, llc, *trace, warmup);
        const auto oracle =
            select::staticOracle(lib, llc, *trace, warmup);
        const size_t best = select::bestStaticIndex(oracle);
        EXPECT_LE(static_cast<double>(res.measured.demandMisses),
                  1.02 * static_cast<double>(
                             oracle[best].measured.demandMisses))
            << name << " best=" << oracle[best].name;
    }
}

// --- Phase-shift family pinning (satellite: suite-digest riding) ---

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t
fnv1a(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
foldU64(uint64_t h, uint64_t v)
{
    return fnv1a(h, &v, sizeof(v));
}

SuiteParams
pinnedParams()
{
    SuiteParams p;
    p.llcBlocks = 256;
    p.accessesPerSimpoint = 2000;
    p.baseSeed = 0x5eed;
    return p;
}

TEST(PhaseShiftSuiteDigest, GoldenDigestPinned)
{
    // Pins the family contents like SuiteDigest.GoldenDigestPinned
    // pins the 30-workload suite: an unintentional generator change
    // shifts every selector result silently, so it must fail here.
    uint64_t h = kFnvOffset;
    for (const WorkloadSpec &spec : phaseShiftFamily(pinnedParams())) {
        h = fnv1a(h, spec.name.data(), spec.name.size());
        const Workload w = SyntheticSuite::materialize(spec);
        for (const Simpoint &sp : w.simpoints()) {
            h = foldU64(h, sp.trace->size());
            for (const MemRecord &rec : sp.trace->records()) {
                h = foldU64(h, rec.instGap);
                h = foldU64(h, rec.addr);
                h = foldU64(h, static_cast<uint64_t>(rec.type));
                h = foldU64(h, rec.type != AccessType::Load ? 1 : 0);
            }
        }
    }
    constexpr uint64_t kGolden = 0x90dca30046e8a1d9ull;
    EXPECT_EQ(h, kGolden);
}

TEST(PhaseShiftSuiteDigest, FamilyIsStableAndDisjointFromSuite)
{
    const SuiteParams params = pinnedParams();
    const auto once = phaseShiftFamily(params);
    ASSERT_EQ(once.size(), 4u);
    const SyntheticSuite suite(params);
    const auto kv = kvCacheFamily(params);
    for (const WorkloadSpec &spec : once) {
        for (const WorkloadSpec &s : suite.specs())
            EXPECT_NE(spec.name, s.name);
        for (const WorkloadSpec &k : kv)
            EXPECT_NE(spec.name, k.name);
        EXPECT_EQ(spec.capacityBlocks, params.llcBlocks);
        ASSERT_EQ(spec.simpoints.size(), 1u);
    }
}

TEST(PhaseShiftSuiteDigest, RegimeBoundariesChangeAddressRegion)
{
    // Every phase lives in its own region: the block addresses of the
    // first quarter and the second quarter of ps_quad must not
    // overlap at all (which is what feeds the working-set trigger).
    const SuiteParams params = testParams();
    const WorkloadSpec *quad = nullptr;
    const auto ps = phaseShiftFamily(params);
    for (const WorkloadSpec &s : ps)
        if (s.name == "ps_quad")
            quad = &s;
    ASSERT_NE(quad, nullptr);
    const Workload w = SyntheticSuite::materialize(*quad);
    const Trace &trace = *w.simpoints().front().trace;
    const size_t quarter = trace.size() / 4;
    const AddressDecode llc(llcCfg());

    auto blockRange = [&](size_t begin, size_t end) {
        uint64_t lo = ~uint64_t{0};
        uint64_t hi = 0;
        for (size_t i = begin; i < end; ++i) {
            const uint64_t b = llc.blockAddr(trace[i].addr);
            lo = std::min(lo, b);
            hi = std::max(hi, b);
        }
        return std::pair<uint64_t, uint64_t>(lo, hi);
    };
    const auto p0 = blockRange(0, quarter);
    const auto p1 = blockRange(quarter, 2 * quarter);
    const auto p2 = blockRange(2 * quarter, 3 * quarter);
    EXPECT_LT(p0.second, p1.first);
    EXPECT_LT(p1.second, p2.first);
}

} // namespace
} // namespace gippr
