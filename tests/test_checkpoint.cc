/**
 * @file
 * Checkpoint/resume tests for the search drivers: a run interrupted
 * at a boundary and resumed from its checkpoint must be bit-identical
 * to an uninterrupted run, and damaged or mismatched checkpoints must
 * be rejected with a clear error instead of crashing or silently
 * restarting.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "ga/crossval.hh"
#include "ga/genetic.hh"
#include "ga/hill_climb.hh"
#include "ga/random_search.hh"
#include "robust/atomic_io.hh"

namespace gippr
{
namespace
{

namespace fs = std::filesystem;

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
makeEvaluator(uint64_t blocks = 640)
{
    std::vector<FitnessTrace> traces;
    FitnessTrace thrash;
    thrash.name = "thrash/0";
    thrash.llcTrace = std::make_shared<Trace>(loopTrace(blocks, 20));
    thrash.instructions = thrash.llcTrace->instructions();
    traces.push_back(thrash);
    return FitnessEvaluator(llcCfg(), std::move(traces), {});
}

std::string
ckptPath(const std::string &leaf)
{
    const std::string path = testing::TempDir() + "gippr_" + leaf;
    fs::remove(path);
    return path;
}

GaParams
smallGa(uint64_t seed = 31)
{
    GaParams params;
    params.initialPopulation = 12;
    params.population = 8;
    params.generations = 6;
    params.threads = 1;
    params.seed = seed;
    return params;
}

void
expectSameGaResult(const GaResult &a, const GaResult &b)
{
    EXPECT_TRUE(a.best == b.best);
    EXPECT_EQ(a.bestFitness, b.bestFitness); // bit-exact, not approx
    ASSERT_EQ(a.history.size(), b.history.size());
    for (size_t i = 0; i < a.history.size(); ++i)
        EXPECT_EQ(a.history[i], b.history[i]);
    ASSERT_EQ(a.finalPopulation.size(), b.finalPopulation.size());
    for (size_t i = 0; i < a.finalPopulation.size(); ++i) {
        EXPECT_TRUE(a.finalPopulation[i].ipv ==
                    b.finalPopulation[i].ipv);
        EXPECT_EQ(a.finalPopulation[i].fitness,
                  b.finalPopulation[i].fitness);
    }
}

TEST(GaCheckpoint, InterruptedResumeIsBitIdentical)
{
    FitnessEvaluator fe = makeEvaluator();
    const GaResult baseline =
        evolveIpv(fe, IpvFamily::Gippr, smallGa());

    const std::string path = ckptPath("ga_resume.gpck");
    GaParams killed = smallGa();
    killed.checkpoint.path = path;
    unsigned polls = 0;
    killed.checkpoint.stopHook = [&]() { return ++polls > 3; };
    const GaResult partial = evolveIpv(fe, IpvFamily::Gippr, killed);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_LT(partial.history.size(), baseline.history.size());
    ASSERT_TRUE(robust::checkpointExists(path));

    GaParams resumed_params = smallGa();
    resumed_params.checkpoint.path = path;
    resumed_params.checkpoint.resume = true;
    const GaResult resumed =
        evolveIpv(fe, IpvFamily::Gippr, resumed_params);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GT(resumed.resumedGenerations, 0u);
    expectSameGaResult(resumed, baseline);
}

TEST(GaCheckpoint, ResumingCompletedRunReproducesIt)
{
    FitnessEvaluator fe = makeEvaluator();
    const std::string path = ckptPath("ga_complete.gpck");
    GaParams params = smallGa();
    params.checkpoint.path = path;
    const GaResult first = evolveIpv(fe, IpvFamily::Gippr, params);
    EXPECT_FALSE(first.interrupted);

    params.checkpoint.resume = true;
    const GaResult again = evolveIpv(fe, IpvFamily::Gippr, params);
    EXPECT_EQ(again.resumedGenerations, params.generations);
    expectSameGaResult(again, first);
}

TEST(GaCheckpoint, DifferentConfigRejected)
{
    FitnessEvaluator fe = makeEvaluator();
    const std::string path = ckptPath("ga_config.gpck");
    GaParams params = smallGa(31);
    params.checkpoint.path = path;
    unsigned polls = 0;
    params.checkpoint.stopHook = [&]() { return ++polls > 2; };
    (void)evolveIpv(fe, IpvFamily::Gippr, params);

    GaParams other = smallGa(32); // different seed
    other.checkpoint.path = path;
    other.checkpoint.resume = true;
    EXPECT_THROW((void)evolveIpv(fe, IpvFamily::Gippr, other),
                 std::runtime_error);
}

TEST(GaCheckpoint, DifferentSuiteRejected)
{
    FitnessEvaluator fe = makeEvaluator();
    const std::string path = ckptPath("ga_suite.gpck");
    GaParams params = smallGa();
    params.checkpoint.path = path;
    unsigned polls = 0;
    params.checkpoint.stopHook = [&]() { return ++polls > 2; };
    (void)evolveIpv(fe, IpvFamily::Gippr, params);

    FitnessEvaluator other = makeEvaluator(512); // different traces
    GaParams resume = smallGa();
    resume.checkpoint.path = path;
    resume.checkpoint.resume = true;
    EXPECT_THROW((void)evolveIpv(other, IpvFamily::Gippr, resume),
                 std::runtime_error);
}

TEST(GaCheckpoint, CorruptAndTruncatedFilesRejected)
{
    FitnessEvaluator fe = makeEvaluator();
    const std::string path = ckptPath("ga_corrupt.gpck");
    GaParams params = smallGa();
    params.checkpoint.path = path;
    unsigned polls = 0;
    params.checkpoint.stopHook = [&]() { return ++polls > 2; };
    (void)evolveIpv(fe, IpvFamily::Gippr, params);

    const std::string good = robust::readFileBytes(path);
    GaParams resume = smallGa();
    resume.checkpoint.path = path;
    resume.checkpoint.resume = true;

    std::string corrupt = good;
    corrupt[corrupt.size() / 2] =
        static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x01);
    robust::writeFileAtomic(path, corrupt);
    EXPECT_THROW((void)evolveIpv(fe, IpvFamily::Gippr, resume),
                 std::runtime_error);

    robust::writeFileAtomic(path, good.substr(0, good.size() / 2));
    EXPECT_THROW((void)evolveIpv(fe, IpvFamily::Gippr, resume),
                 std::runtime_error);

    // The intact checkpoint still resumes after the bad ones.
    robust::writeFileAtomic(path, good);
    const GaResult ok = evolveIpv(fe, IpvFamily::Gippr, resume);
    EXPECT_GT(ok.resumedGenerations, 0u);
}

TEST(GaCheckpoint, WrongKindRejected)
{
    FitnessEvaluator fe = makeEvaluator();
    const std::string path = ckptPath("ga_kind.gpck");
    GaParams params = smallGa();
    params.checkpoint.path = path;
    unsigned polls = 0;
    params.checkpoint.stopHook = [&]() { return ++polls > 2; };
    (void)evolveIpv(fe, IpvFamily::Gippr, params);

    // A GA checkpoint fed to the hill climber is a kind mismatch.
    robust::CheckpointOptions hc;
    hc.path = path;
    hc.resume = true;
    EXPECT_THROW((void)hillClimb(fe, IpvFamily::Gippr, Ipv::lru(16),
                                 200, hc),
                 std::runtime_error);
}

TEST(RandomSearchCheckpoint, InterruptedResumeIsBitIdentical)
{
    FitnessEvaluator fe = makeEvaluator();
    const size_t count = 100; // > one 64-sample chunk
    const auto baseline =
        randomSearch(fe, IpvFamily::Gippr, count, 7, 1);

    const std::string path = ckptPath("rs_resume.gpck");
    robust::CheckpointOptions ckpt;
    ckpt.path = path;
    unsigned polls = 0;
    ckpt.stopHook = [&]() { return ++polls > 1; };
    EXPECT_THROW((void)randomSearch(fe, IpvFamily::Gippr, count, 7, 1,
                                    ckpt),
                 robust::Interrupted);
    ASSERT_TRUE(robust::checkpointExists(path));

    robust::CheckpointOptions resume;
    resume.path = path;
    resume.resume = true;
    const auto resumed =
        randomSearch(fe, IpvFamily::Gippr, count, 7, 1, resume);
    ASSERT_EQ(resumed.size(), baseline.size());
    for (size_t i = 0; i < resumed.size(); ++i) {
        EXPECT_TRUE(resumed[i].ipv == baseline[i].ipv);
        EXPECT_EQ(resumed[i].fitness, baseline[i].fitness);
    }
}

TEST(RandomSearchCheckpoint, DifferentCountRejected)
{
    FitnessEvaluator fe = makeEvaluator();
    const std::string path = ckptPath("rs_count.gpck");
    robust::CheckpointOptions ckpt;
    ckpt.path = path;
    unsigned polls = 0;
    ckpt.stopHook = [&]() { return ++polls > 1; };
    EXPECT_THROW((void)randomSearch(fe, IpvFamily::Gippr, 100, 7, 1,
                                    ckpt),
                 robust::Interrupted);

    robust::CheckpointOptions resume;
    resume.path = path;
    resume.resume = true;
    EXPECT_THROW((void)randomSearch(fe, IpvFamily::Gippr, 80, 7, 1,
                                    resume),
                 std::runtime_error);
}

TEST(HillClimbCheckpoint, InterruptedResumeIsBitIdentical)
{
    FitnessEvaluator fe = makeEvaluator();
    const Ipv start = Ipv::lru(16);
    const HillClimbResult baseline =
        hillClimb(fe, IpvFamily::Gippr, start, 2000);

    const std::string path = ckptPath("hc_resume.gpck");
    robust::CheckpointOptions ckpt;
    ckpt.path = path;
    unsigned polls = 0;
    // The second boundary poll happens as soon as one move is
    // accepted, which the thrash fitness guarantees.
    ckpt.stopHook = [&]() { return ++polls > 1; };
    const HillClimbResult partial =
        hillClimb(fe, IpvFamily::Gippr, start, 2000, ckpt);
    EXPECT_TRUE(partial.interrupted);
    ASSERT_TRUE(robust::checkpointExists(path));

    robust::CheckpointOptions resume;
    resume.path = path;
    resume.resume = true;
    const HillClimbResult resumed =
        hillClimb(fe, IpvFamily::Gippr, start, 2000, resume);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_TRUE(resumed.best == baseline.best);
    EXPECT_EQ(resumed.bestFitness, baseline.bestFitness);
    EXPECT_EQ(resumed.evaluations, baseline.evaluations);
    EXPECT_EQ(resumed.steps, baseline.steps);
}

/** Two loop workloads for the WN1 checkpoint tests. */
std::vector<WorkloadTraces>
wn1Workloads()
{
    std::vector<WorkloadTraces> workloads;
    for (int w = 0; w < 2; ++w) {
        WorkloadTraces wt;
        wt.name = "wl" + std::to_string(w);
        FitnessTrace ft;
        ft.name = wt.name + "/0";
        ft.llcTrace = std::make_shared<Trace>(
            loopTrace(w == 0 ? 640 : 200, 12,
                      static_cast<uint64_t>(w) * 100000));
        ft.instructions = ft.llcTrace->instructions();
        wt.traces.push_back(std::move(ft));
        workloads.push_back(std::move(wt));
    }
    return workloads;
}

GaParams
smallWn1()
{
    GaParams params;
    params.initialPopulation = 10;
    params.population = 8;
    params.generations = 3;
    params.threads = 1;
    params.seed = 5;
    return params;
}

void
expectSameWn1(const Wn1Vectors &a, const Wn1Vectors &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[name, vectors] : b) {
        const auto it = a.find(name);
        ASSERT_NE(it, a.end());
        ASSERT_EQ(it->second.size(), vectors.size());
        for (size_t i = 0; i < vectors.size(); ++i)
            EXPECT_TRUE(it->second[i] == vectors[i]);
    }
}

/**
 * Run @p params' WN1 search with a checkpoint at @p path and stop it
 * at the boundary before the second fold, leaving exactly one
 * completed fold on disk.
 */
void
stopWn1AfterFirstFold(const GaParams &params, const std::string &path)
{
    fs::remove(path + ".fold-wl0");
    fs::remove(path + ".fold-wl1");
    GaParams killed = params;
    killed.checkpoint.path = path;
    // The fold-progress file first appears when fold 0 completes; the
    // next poll is fold 1's boundary.
    killed.checkpoint.stopHook = [&]() {
        return robust::checkpointExists(path);
    };
    EXPECT_THROW((void)evolveWn1(llcCfg(), wn1Workloads(),
                                 IpvFamily::Gippr, 2, killed),
                 robust::Interrupted);
}

TEST(Wn1Checkpoint, InterruptedResumeIsBitIdentical)
{
    const GaParams params = smallWn1();
    const Wn1Vectors baseline = evolveWn1(
        llcCfg(), wn1Workloads(), IpvFamily::Gippr, 2, params);

    const std::string path = ckptPath("wn1_resume.gpck");
    fs::remove(path + ".fold-wl0");
    fs::remove(path + ".fold-wl1");
    GaParams killed = params;
    killed.checkpoint.path = path;
    unsigned polls = 0;
    // Interrupt inside the second fold's GA (each fold polls several
    // times: once at the fold boundary, once per generation).
    killed.checkpoint.stopHook = [&]() { return ++polls > 7; };
    EXPECT_THROW((void)evolveWn1(llcCfg(), wn1Workloads(),
                                 IpvFamily::Gippr, 2, killed),
                 robust::Interrupted);

    GaParams resumed_params = params;
    resumed_params.checkpoint.path = path;
    resumed_params.checkpoint.resume = true;
    const Wn1Vectors resumed = evolveWn1(
        llcCfg(), wn1Workloads(), IpvFamily::Gippr, 2, resumed_params);
    expectSameWn1(resumed, baseline);
}

TEST(Wn1Checkpoint, DifferentSeedVectorsRejected)
{
    // The seeds shape every fold's population and duel-set pool, so a
    // completed fold evolved from other seeds must not be reused.
    GaParams params = smallWn1();
    params.seedIpvs = {Ipv::lruInsertion(16)};
    const std::string path = ckptPath("wn1_seeds.gpck");
    stopWn1AfterFirstFold(params, path);
    ASSERT_TRUE(robust::checkpointExists(path));

    GaParams other = params;
    other.seedIpvs = {Ipv::lru(16)};
    other.checkpoint.path = path;
    other.checkpoint.resume = true;
    try {
        (void)evolveWn1(llcCfg(), wn1Workloads(), IpvFamily::Gippr, 2,
                        other);
        ADD_FAILURE() << "resumed a WN1 checkpoint with other seeds";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "different configuration (digest mismatch); "
                      "refusing to resume"),
                  std::string::npos)
            << e.what();
    }

    GaParams none = params;
    none.seedIpvs.clear();
    none.checkpoint.path = path;
    none.checkpoint.resume = true;
    EXPECT_THROW((void)evolveWn1(llcCfg(), wn1Workloads(),
                                 IpvFamily::Gippr, 2, none),
                 std::runtime_error);
}

TEST(Wn1Checkpoint, SameSeedVectorsResumeBitIdentically)
{
    GaParams params = smallWn1();
    params.seedIpvs = {Ipv::lruInsertion(16)};
    const Wn1Vectors baseline = evolveWn1(
        llcCfg(), wn1Workloads(), IpvFamily::Gippr, 2, params);

    const std::string path = ckptPath("wn1_same_seeds.gpck");
    stopWn1AfterFirstFold(params, path);
    ASSERT_TRUE(robust::checkpointExists(path));

    GaParams resumed_params = params;
    resumed_params.checkpoint.path = path;
    resumed_params.checkpoint.resume = true;
    expectSameWn1(evolveWn1(llcCfg(), wn1Workloads(), IpvFamily::Gippr, 2,
                            resumed_params),
                  baseline);
}

} // namespace
} // namespace gippr
