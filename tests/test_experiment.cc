/**
 * @file
 * Tests for the experiment harness (miss and perf experiments,
 * normalization, tables, subsets).
 */

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>

#include "core/vectors.hh"
#include "sim/experiment.hh"
#include "sim/fastpath/scalar_model.hh"

namespace gippr
{
namespace
{

SuiteParams
tinySuite()
{
    SuiteParams p;
    p.llcBlocks = 512;
    p.accessesPerSimpoint = 12000;
    p.baseSeed = 7;
    return p;
}

ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.system.hier.l1 = {"L1", 4 * 1024, 8, 64};   // 64 blocks
    cfg.system.hier.l2 = {"L2", 8 * 1024, 8, 64};   // 128 blocks
    cfg.system.hier.llc = {"LLC", 32 * 1024, 16, 64}; // 512 blocks
    cfg.threads = 4;
    return cfg;
}

class ExperimentTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        // One shared miss experiment across tests (it is the slow
        // part); computed once.
        suite_ = new SyntheticSuite(tinySuite());
        ExperimentConfig cfg = tinyConfig();
        cfg.includeMin = true;
        std::vector<PolicyDef> policies = {
            policyByName("LRU"), policyByName("DRRIP"),
            policyByName("DGIPPR2")};
        result_ = new ExperimentResult(
            runMissExperiment(*suite_, policies, cfg));
    }

    static void
    TearDownTestSuite()
    {
        delete result_;
        delete suite_;
        result_ = nullptr;
        suite_ = nullptr;
    }

    static SyntheticSuite *suite_;
    static ExperimentResult *result_;
};

SyntheticSuite *ExperimentTest::suite_ = nullptr;
ExperimentResult *ExperimentTest::result_ = nullptr;

TEST_F(ExperimentTest, OneRowPerWorkload)
{
    EXPECT_EQ(result_->rows.size(), suite_->specs().size());
    for (size_t i = 0; i < result_->rows.size(); ++i)
        EXPECT_EQ(result_->rows[i].workload, suite_->specs()[i].name);
}

TEST_F(ExperimentTest, ColumnsIncludeMin)
{
    ASSERT_EQ(result_->columns.size(), 4u);
    EXPECT_EQ(result_->columns.back(), "MIN");
    EXPECT_EQ(result_->columnIndex("DRRIP"), 1u);
    EXPECT_THROW(result_->columnIndex("nope"), std::runtime_error);
}

TEST_F(ExperimentTest, MinNeverExceedsAnyPolicy)
{
    size_t min_col = result_->columnIndex("MIN");
    for (const auto &row : result_->rows) {
        for (size_t c = 0; c < min_col; ++c) {
            EXPECT_LE(row.values[min_col], row.values[c] + 1e-9)
                << row.workload << " vs " << result_->columns[c];
        }
    }
}

TEST_F(ExperimentTest, BaselineNormalizesToOne)
{
    size_t lru = result_->columnIndex("LRU");
    auto norm = result_->normalized(lru, lru, false);
    for (double v : norm)
        EXPECT_NEAR(v, 1.0, 1e-9);
    EXPECT_NEAR(result_->geomeanNormalized(lru, lru, false), 1.0,
                1e-9);
}

TEST_F(ExperimentTest, MpkiValuesAreFinite)
{
    for (const auto &row : result_->rows)
        for (double v : row.values) {
            EXPECT_GE(v, 0.0) << row.workload;
            EXPECT_LT(v, 1000.0) << row.workload;
        }
}

TEST_F(ExperimentTest, MinGeomeanClearlyBelowLru)
{
    size_t lru = result_->columnIndex("LRU");
    size_t min_col = result_->columnIndex("MIN");
    double g = result_->geomeanNormalized(min_col, lru, false);
    EXPECT_LT(g, 0.95);
}

TEST_F(ExperimentTest, NormalizedTableHasGeomeanFooter)
{
    size_t lru = result_->columnIndex("LRU");
    Table t = result_->toNormalizedTable(lru, false, 1);
    EXPECT_EQ(t.rows(), result_->rows.size() + 1);
    EXPECT_EQ(t.cell(t.rows() - 1, 0), "geomean");
}

TEST_F(ExperimentTest, SortColumnOrdersRowsAscending)
{
    size_t lru = result_->columnIndex("LRU");
    size_t drrip = result_->columnIndex("DRRIP");
    Table t = result_->toNormalizedTable(lru, false, drrip);
    double prev = -1.0;
    for (size_t r = 0; r + 1 < t.rows(); ++r) { // skip footer
        double v = std::stod(t.cell(r, 2));     // DRRIP column
        EXPECT_GE(v, prev - 1e-9);
        prev = v;
    }
}

TEST_F(ExperimentTest, SubsetSelectsThrashyWorkloads)
{
    // Workloads where DRRIP beats LRU by >1% in misses: normalized
    // MPKI < 0.99 -> use speedup=false and threshold inverted via
    // the raw interface.
    size_t lru = result_->columnIndex("LRU");
    size_t drrip = result_->columnIndex("DRRIP");
    auto norm = result_->normalized(drrip, lru, false);
    std::vector<size_t> manual;
    for (size_t i = 0; i < norm.size(); ++i)
        if (norm[i] < 0.99)
            manual.push_back(i);
    EXPECT_FALSE(manual.empty());
}

TEST_F(ExperimentTest, RawTableRendersCsv)
{
    Table t = result_->toRawTable();
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("MPKI"), std::string::npos);
}

TEST(MissExperiment, PackedReplayMirrorsScalarTelemetry)
{
    // A packed replay fills the registry exactly as a telemetry-
    // attached SetAssocCache + DgipprPolicy does: the same policy with
    // its spec dropped takes the scalar path and must produce the same
    // counters and final duel winner.  One thread keeps the winner
    // gauge's last write in suite order.
    SuiteParams sp = tinySuite();
    sp.accessesPerSimpoint = 4000;
    const SyntheticSuite suite(sp);
    ExperimentConfig cfg = tinyConfig();
    cfg.threads = 1;
    const PolicyDef packed = policyByName("DGIPPR2");
    ASSERT_TRUE(packed.fastSpec.has_value());
    PolicyDef scalar = packed;
    scalar.fastSpec.reset();

    telemetry::MetricRegistry packed_reg;
    cfg.registry = &packed_reg;
    const ExperimentResult a = runMissExperiment(suite, {packed}, cfg);
    telemetry::MetricRegistry scalar_reg;
    cfg.registry = &scalar_reg;
    const ExperimentResult b = runMissExperiment(suite, {scalar}, cfg);

    const telemetry::JsonValue snap = packed_reg.snapshot();
    for (const char *key :
         {"hits", "demand_misses", "bypasses", "evictions", "writebacks",
          "duel.leader_misses.0", "duel.leader_misses.1", "duel.winner"})
        EXPECT_TRUE(snap.has(std::string("llc.2-DGIPPR.") + key)) << key;
    EXPECT_GT(snap.at("llc.2-DGIPPR.hits").asNumber(), 0.0);
    EXPECT_GT(snap.at("llc.2-DGIPPR.duel.leader_misses.0").asNumber(),
              0.0);
    EXPECT_EQ(snap.dump(), scalar_reg.snapshot().dump());
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (size_t i = 0; i < a.rows.size(); ++i)
        EXPECT_EQ(a.rows[i].values, b.rows[i].values) << a.rows[i].workload;

    // DRRIP and PDP: same counters both ways, and no duel keys, which
    // the scalar RripPolicy never exported.
    for (const char *name : {"DRRIP", "PDP"}) {
        const PolicyDef spec_def = policyByName(name);
        ASSERT_TRUE(spec_def.fastSpec.has_value()) << name;
        PolicyDef plain = spec_def;
        plain.fastSpec.reset();
        telemetry::MetricRegistry spec_reg;
        cfg.registry = &spec_reg;
        const ExperimentResult c =
            runMissExperiment(suite, {spec_def}, cfg);
        telemetry::MetricRegistry plain_reg;
        cfg.registry = &plain_reg;
        const ExperimentResult d = runMissExperiment(suite, {plain}, cfg);
        const telemetry::JsonValue got = spec_reg.snapshot();
        const std::string prefix = std::string("llc.") + name + ".";
        EXPECT_GT(got.at(prefix + "hits").asNumber(), 0.0) << name;
        EXPECT_FALSE(got.has(prefix + "duel.winner")) << name;
        EXPECT_FALSE(got.has(prefix + "duel.leader_misses.0")) << name;
        EXPECT_EQ(got.dump(), plain_reg.snapshot().dump()) << name;
        ASSERT_EQ(c.rows.size(), d.rows.size());
        for (size_t i = 0; i < c.rows.size(); ++i)
            EXPECT_EQ(c.rows[i].values, d.rows[i].values)
                << name << " " << c.rows[i].workload;
    }
}

/**
 * A mixed column list at @p assoc ways: six packed specs and three
 * spec-less policies, interleaved.  16 ways take the shipped vectors;
 * other widths take vectors of their own arity.
 */
std::vector<PolicyDef>
mixedColumns(unsigned assoc)
{
    const Ipv gippr = assoc == 16 ? local_vectors::gippr()
                                  : Ipv::parse("0 0 1 0 3 0 1 2 6");
    const std::vector<Ipv> four =
        assoc == 16 ? local_vectors::dgippr4()
                    : std::vector<Ipv>{Ipv::lru(assoc),
                                       Ipv::lruInsertion(assoc), gippr,
                                       Ipv::parse("0 1 0 2 1 4 3 5 7")};
    return {lruDef(),
            randomDef(),
            plruDef(),
            dipDef(),
            gipprDef("GIPPR", gippr),
            dgipprDef("4-DGIPPR", four),
            drripDef(),
            pdpDef(),
            bypassGipprDef("B-GIPPR", gippr)};
}

TEST(MissExperiment, BatchedColumnsMatchPerPolicyReplay)
{
    // replayPolicies batches the specs through one replayMany pass and
    // replays the rest on ScalarModel.  Each column must equal its
    // policy replayed alone, on a 16-way LLC (the paired AVX2 kernel
    // where the host has it) and an 8-way one (the generic loop), at
    // three warmups; and the registry must read as if the policies had
    // replayed one at a time.
    const ExperimentConfig cfg = tinyConfig();
    const SyntheticSuite suite(tinySuite());
    LlcTraceCache traces;
    const auto entries =
        traces.get(suite.spec("mix_zipfscan"), cfg.system.hier, nullptr);
    const Trace &trace = *entries->front().demandTrace;
    ASSERT_GT(trace.size(), 1000u);
    const fastpath::ReplayEngine &engine = fastpath::defaultReplayEngine();

    for (unsigned assoc : {16u, 8u}) {
        const CacheConfig llc = {"LLC", 32 * 1024, assoc, 64};
        const std::vector<PolicyDef> policies = mixedColumns(assoc);
        for (size_t warmup : {size_t{0}, trace.size() / 3, trace.size()}) {
            telemetry::MetricRegistry batched_reg;
            const std::vector<fastpath::CounterBank> got = replayPolicies(
                policies, llc, trace, warmup, engine, &batched_reg);
            ASSERT_EQ(got.size(), policies.size());
            telemetry::MetricRegistry single_reg;
            for (size_t p = 0; p < policies.size(); ++p) {
                const PolicyDef &def = policies[p];
                fastpath::CounterBank want;
                if (def.fastSpec) {
                    want = engine.replay(*def.fastSpec, llc, trace, warmup)
                               .measured;
                } else {
                    fastpath::ScalarModel model(llc, def.make(llc));
                    want =
                        fastpath::replayInOrder(model, trace, warmup)
                            .measured;
                }
                EXPECT_EQ(got[p], want)
                    << def.name << " assoc " << assoc << " warmup "
                    << warmup;
                replayPolicies(std::span(&def, 1), llc, trace, warmup,
                               engine, &single_reg);
            }
            EXPECT_EQ(batched_reg.snapshot().dump(),
                      single_reg.snapshot().dump())
                << "assoc " << assoc << " warmup " << warmup;
        }
    }
}

TEST(PerfExperiment, SpeedupOrderingSanity)
{
    // Small perf experiment on a 6-workload subset: DGIPPR2 must not
    // be slower than LRU overall, and every IPC must be positive.
    SuiteParams sp = tinySuite();
    SyntheticSuite suite(sp);
    ExperimentConfig cfg = tinyConfig();
    std::vector<PolicyDef> policies = {policyByName("LRU"),
                                       policyByName("DGIPPR2")};
    ExperimentResult r = runPerfExperiment(suite, policies, cfg);
    size_t lru = r.columnIndex("LRU");
    size_t dg = r.columnIndex("2-DGIPPR");
    for (const auto &row : r.rows)
        for (double v : row.values)
            EXPECT_GT(v, 0.0) << row.workload;
    double g = r.geomeanNormalized(dg, lru, true);
    EXPECT_GT(g, 0.99);
}

} // namespace
} // namespace gippr
