/**
 * @file
 * Equivalence tests for batched multi-genome replay.
 *
 * The batched kernel's contract is that batching is an implementation
 * detail: ReplayEngine::replayMany must return exactly what per-spec
 * replay() returns for any spec mix and shard count, and the
 * FitnessEvaluator batch API (evaluateAll / missesForAll) must return
 * exactly what per-genome evaluation returns at any batch width, with
 * the memo cache changing replay counts but never values.  On top of
 * the kernel checks, a same-seed evolveIpv run must produce a
 * byte-identical pinned-timestamp RunReport with the batch engine on
 * and off.  The strict parser behind the numeric GIPPR_* knobs keeps
 * well-formed values exactly.
 *
 * Scale knobs (shared with the fastpath-equiv CI job):
 *   GIPPR_FASTPATH_EQUIV_ACCESSES  stream length scale (default
 *                                  200000; this file uses a fifth of
 *                                  it per trace)
 *   GIPPR_FASTPATH_EQUIV_FULL=1    larger populations and one more
 *                                  trace per evaluator
 */

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/config.hh"
#include "core/vectors.hh"
#include "ga/fitness.hh"
#include "ga/genetic.hh"
#include "ga/random_search.hh"
#include "sim/fastpath/engine.hh"
#include "telemetry/metrics.hh"
#include "telemetry/report.hh"
#include "trace/trace.hh"
#include "util/check.hh"
#include "util/env.hh"
#include "util/rng.hh"

namespace gippr
{
namespace
{

uint64_t
traceAccesses()
{
    const char *env = std::getenv("GIPPR_FASTPATH_EQUIV_ACCESSES");
    return (env ? std::strtoull(env, nullptr, 10) : 200'000) / 5;
}

bool
fullSweep()
{
    const char *env = std::getenv("GIPPR_FASTPATH_EQUIV_FULL");
    return env && std::string(env) == "1";
}

/** Small LLC so streams wrap the set space and evict constantly. */
CacheConfig
smallLlc()
{
    CacheConfig cfg;
    cfg.name = "llc";
    cfg.sizeBytes = 64 * 1024; // 64 sets at 16 ways
    cfg.assoc = 16;
    cfg.blockBytes = 64;
    return cfg;
}

/** Mixed demand/writeback stream over 4x the cache's capacity. */
Trace
mixedStream(uint64_t n, uint64_t seed, const CacheConfig &cfg)
{
    Rng rng(seed);
    Trace trace;
    trace.reserve(n);
    const uint64_t block = cfg.blockBytes;
    const uint64_t blocks = cfg.sets() * cfg.assoc * 4;
    for (uint64_t i = 0; i < n; ++i) {
        MemRecord rec;
        rec.instGap = 1;
        rec.addr = rng.nextBounded(blocks) * block;
        if (rng.nextBool(0.1)) {
            rec.isWrite = true;
            rec.pc = 0; // writeback
        } else {
            rec.isWrite = rng.nextBool(0.25);
            rec.pc = 0x400000 + rng.nextBounded(64) * 4;
        }
        trace.append(rec);
    }
    return trace;
}

/** Training traces with distinct contents (and thus behaviours). */
std::vector<FitnessTrace>
trainingTraces()
{
    const CacheConfig cfg = smallLlc();
    const uint64_t n = traceAccesses();
    std::vector<uint64_t> seeds = {0xba7c, 0x5eed};
    if (fullSweep())
        seeds.push_back(0xfeed);
    std::vector<FitnessTrace> out;
    for (size_t i = 0; i < seeds.size(); ++i) {
        FitnessTrace ft;
        ft.name = "stream/" + std::to_string(i);
        ft.llcTrace =
            std::make_shared<Trace>(mixedStream(n, seeds[i], cfg));
        ft.instructions = ft.llcTrace->instructions();
        out.push_back(std::move(ft));
    }
    return out;
}

std::vector<Ipv>
randomPopulation(size_t count, unsigned ways, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Ipv> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i)
        out.push_back(randomIpv(ways, rng));
    return out;
}

/**
 * Deterministic RunReport from one GA run: pinned timestamp, the
 * convergence history, best vector and final-population fitnesses —
 * everything a result artifact derives from the search except
 * wall-clock seconds.
 */
std::string
reportFor(const FitnessEvaluator &fitness, IpvFamily family,
          const GaParams &params)
{
    const GaResult ga = evolveIpv(fitness, family, params);
    telemetry::RunReport report("ga", "batched_equiv_probe");
    report.setTimestamp("2000-01-01T00:00:00Z");
    report.setConfig("best_vector",
                     telemetry::JsonValue(ga.best.toString()));
    report.setConfig(
        "best_fitness",
        telemetry::JsonValue(std::to_string(ga.bestFitness)));
    telemetry::ResultTable table;
    table.title = "convergence";
    table.metric = "fitness";
    table.columns = {"best"};
    for (size_t g = 0; g < ga.history.size(); ++g)
        table.rows.push_back({std::to_string(g), {ga.history[g]}});
    report.addTable(std::move(table));
    telemetry::ResultTable pop;
    pop.title = "final_population";
    pop.metric = "fitness";
    pop.columns = {"fitness"};
    for (const SampledIpv &s : ga.finalPopulation)
        pop.rows.push_back({s.ipv.toString(), {s.fitness}});
    report.addTable(std::move(pop));
    return report.toJson().dump(2);
}

TEST(BatchedEquiv, ReplayManyMatchesPerSpecReplay)
{
    const CacheConfig cfg = smallLlc();
    const Trace trace = mixedStream(traceAccesses(), 0xabcd, cfg);
    const size_t warmup = trace.size() / 3;

    // A deliberately mixed batch: every core policy (including both
    // DGIPPR variants) plus random per-genome vectors.  replayMany
    // never shards, so at 4 shards its one batched pass must still
    // equal the sharded per-spec replay().
    Rng rng(0x77);
    std::vector<fastpath::ReplaySpec> specs = {
        fastpath::lruSpec(),
        fastpath::lipSpec(),
        fastpath::giplrSpec(local_vectors::giplr()),
        fastpath::plruSpec(),
        fastpath::gipprSpec(local_vectors::gippr()),
        fastpath::dgipprSpec(local_vectors::dgippr2()),
        fastpath::dgipprSpec(local_vectors::dgippr4()),
    };
    for (int i = 0; i < 6; ++i) {
        specs.push_back(fastpath::gipprSpec(randomIpv(16, rng)));
        specs.push_back(fastpath::giplrSpec(randomIpv(16, rng)));
    }

    const fastpath::ScalarReplayEngine scalar;
    for (unsigned shards : {1u, 4u}) {
        const fastpath::FastReplayEngine fast(shards);
        const std::vector<fastpath::ReplayStats> batched =
            fast.replayMany(specs, cfg, trace, warmup);
        ASSERT_EQ(batched.size(), specs.size());
        for (size_t s = 0; s < specs.size(); ++s) {
            EXPECT_EQ(batched[s],
                      fast.replay(specs[s], cfg, trace, warmup))
                << specs[s].name() << " at " << shards << " shards";
            EXPECT_EQ(batched[s],
                      scalar.replay(specs[s], cfg, trace, warmup))
                << specs[s].name() << " vs scalar";
        }
    }

    // The default (base-class) implementation is the per-spec loop.
    const std::vector<fastpath::ReplayStats> via_scalar =
        scalar.replayMany(specs, cfg, trace, warmup);
    for (size_t s = 0; s < specs.size(); ++s)
        EXPECT_EQ(via_scalar[s],
                  scalar.replay(specs[s], cfg, trace, warmup));
}

TEST(BatchedEquiv, DispatchedKernelIsBitIdenticalAtEveryShardCount)
{
    const CacheConfig cfg = smallLlc();
    const Trace trace = mixedStream(traceAccesses(), 0x32e0, cfg);
    const size_t warmup = trace.size() / 3;

    // Seven non-duel models, so a batch32 host runs the quad pass, the
    // pair pass AND the generic loop for the leftover (4+2+1) at every
    // shard count, and three duel models, so the single-shard duel
    // group runs a pair plus a generic leftover too.  Every family
    // (recency, PLRU, tree IPV, duel) rides the same batch.
    Rng rng(0x320);
    std::vector<fastpath::ReplaySpec> specs = {
        fastpath::lruSpec(),
        fastpath::lipSpec(),
        fastpath::plruSpec(),
        fastpath::dgipprSpec(local_vectors::dgippr2()),
        fastpath::dgipprSpec(local_vectors::dgippr4()),
        fastpath::dgipprSpec({randomIpv(16, rng), randomIpv(16, rng)}),
    };
    for (int i = 0; i < 2; ++i) {
        specs.push_back(fastpath::gipprSpec(randomIpv(16, rng)));
        specs.push_back(fastpath::giplrSpec(randomIpv(16, rng)));
    }

    // Reference: the scalar object-based engine, one spec at a time.
    const fastpath::ScalarReplayEngine scalar;
    std::vector<fastpath::ReplayStats> want;
    for (const fastpath::ReplaySpec &spec : specs)
        want.push_back(scalar.replay(spec, cfg, trace, warmup));

    const char *kernel =
        fastpath::replayKernelName(fastpath::activeReplayKernel());
    for (unsigned shards : {1u, 2u, 4u, 16u}) {
        const fastpath::FastReplayEngine fast(shards);
        const std::vector<fastpath::ReplayStats> got =
            fast.replayMany(specs, cfg, trace, warmup);
        ASSERT_EQ(got.size(), want.size());
        for (size_t s = 0; s < want.size(); ++s)
            EXPECT_EQ(got[s], want[s])
                << specs[s].name() << " under " << kernel << " at "
                << shards << " shards";
    }
}

TEST(EnvKnob, WellFormedValuesKeepTheirMeaning)
{
    const char *const knob = "GIPPR_IO_RETRY_BASE_MS";
    EXPECT_EQ(parseEnvUnsigned(knob, "0"), 0u);
    EXPECT_EQ(parseEnvUnsigned(knob, "32"), 32u);
    EXPECT_EQ(parseEnvUnsigned(knob, "65536"), 65536u);
    EXPECT_EQ(parseEnvUnsigned(knob, "4294967295", 4294967295u),
              4294967295u);
    EXPECT_THROW(parseEnvUnsigned(knob, "4294967296", 4294967295u),
                 std::runtime_error);
    EXPECT_THROW(parseEnvUnsigned(knob, "18446744073709551616"),
                 std::runtime_error);
}

TEST(BatchedEquiv, BatchWidthsProduceIdenticalMissCounts)
{
    const fastpath::ScalarReplayEngine scalar_engine;
    FitnessEvaluator fast(smallLlc(), trainingTraces());
    FitnessEvaluator reference(smallLlc(), trainingTraces(), {},
                               nullptr, &scalar_engine);
    fast.setMemoCapacity(0);      // force real replays per width
    reference.setMemoCapacity(0);

    const size_t count = fullSweep() ? 48 : 32;
    for (IpvFamily family :
         {IpvFamily::Giplr, IpvFamily::Gippr, IpvFamily::RripIpv}) {
        const std::vector<Ipv> pop = randomPopulation(
            count, familyArity(family, smallLlc()), 0x9a0 + count);
        const std::vector<std::vector<uint64_t>> want =
            reference.missesForAll(pop, family);
        for (unsigned width : {1u, 2u, 7u, 32u}) {
            fast.setBatchWidth(width);
            EXPECT_EQ(fast.missesForAll(pop, family), want)
                << "family " << static_cast<int>(family) << " width "
                << width;
        }
    }
}

TEST(BatchedEquiv, RripFamilyEvaluateAllMatchesEvaluate)
{
    FitnessEvaluator fe(smallLlc(), trainingTraces());
    const std::vector<Ipv> pop = randomPopulation(6, 4, 0x44);
    const std::vector<double> batched =
        fe.evaluateAll(pop, IpvFamily::RripIpv, 2);
    ASSERT_EQ(batched.size(), pop.size());
    for (size_t i = 0; i < pop.size(); ++i)
        EXPECT_DOUBLE_EQ(batched[i],
                         fe.evaluate(pop[i], IpvFamily::RripIpv))
            << i;
}

TEST(BatchedEquiv, MemoServesRepeatsWithoutReplaying)
{
    telemetry::MetricRegistry registry;
    FitnessEvaluator fe(smallLlc(), trainingTraces());
    fe.attachTelemetry(registry, "fitness");
    const telemetry::Counter &replays =
        registry.counter("fitness.replays");
    const telemetry::Counter &hits =
        registry.counter("fitness.memo_hits");

    const std::vector<Ipv> pop = randomPopulation(8, 16, 0x111);
    const std::vector<double> first =
        fe.evaluateAll(pop, IpvFamily::Gippr);
    const uint64_t replays_after_first = replays.value();
    EXPECT_EQ(replays_after_first, pop.size() * fe.traceCount());

    // Same vectors again: served from the memo, zero new replays.
    EXPECT_EQ(fe.evaluateAll(pop, IpvFamily::Gippr), first);
    EXPECT_EQ(replays.value(), replays_after_first);
    EXPECT_EQ(hits.value(), pop.size());

    // Single-vector paths share the cache (elites, duel candidates).
    EXPECT_EQ(fe.evaluate(pop[3], IpvFamily::Gippr), first[3]);
    EXPECT_EQ(replays.value(), replays_after_first);

    // Same bytes under another family is a different key.
    fe.evaluateAll(pop, IpvFamily::Giplr);
    EXPECT_EQ(replays.value(),
              2 * pop.size() * fe.traceCount());

    // Disabling the cache forces replays again, values unchanged.
    fe.setMemoCapacity(0);
    EXPECT_EQ(fe.evaluateAll(pop, IpvFamily::Gippr), first);
    EXPECT_EQ(replays.value(),
              3 * pop.size() * fe.traceCount());
}

TEST(BatchedEquiv, DuplicateVectorsCollapseToOneReplay)
{
    telemetry::MetricRegistry registry;
    FitnessEvaluator fe(smallLlc(), trainingTraces());
    fe.setMemoCapacity(0); // dedup works even with the cache off
    fe.attachTelemetry(registry, "fitness");
    const telemetry::Counter &replays =
        registry.counter("fitness.replays");

    Rng rng(0x222);
    const Ipv twin = randomIpv(16, rng);
    const std::vector<Ipv> pop = {twin, randomIpv(16, rng), twin,
                                  twin};
    const std::vector<double> scores =
        fe.evaluateAll(pop, IpvFamily::Gippr);
    EXPECT_EQ(replays.value(), 2 * fe.traceCount());
    EXPECT_DOUBLE_EQ(scores[0], scores[2]);
    EXPECT_DOUBLE_EQ(scores[0], scores[3]);
}

TEST(BatchedEquiv, ElitesAreNeverReEvaluated)
{
    telemetry::MetricRegistry registry;
    FitnessEvaluator fe(smallLlc(), trainingTraces());
    fe.attachTelemetry(registry, "fitness");
    const telemetry::Counter &evals =
        registry.counter("fitness.evaluations");
    const telemetry::Counter &replays =
        registry.counter("fitness.replays");

    // All-elite generations: after generation zero there are no
    // children, so a run that skips elites evaluates nothing further
    // (the checks-build elite audit calls evaluate(), which the memo
    // serves without replaying).
    GaParams params;
    params.initialPopulation = 8;
    params.population = 4;
    params.elites = 4;
    params.generations = 3;
    params.threads = 2;
    params.seed = 0x333;
    const GaResult ga = evolveIpv(fe, IpvFamily::Gippr, params);
    EXPECT_EQ(ga.history.size(), params.generations + 1);

    uint64_t expected_evals = params.initialPopulation;
#if GIPPR_CHECKS_ENABLED
    expected_evals += params.generations * params.elites;
#endif
    EXPECT_EQ(evals.value(), expected_evals);
    // Replays happen for the 8 distinct gen-0 vectors only.
    EXPECT_EQ(replays.value(),
              params.initialPopulation * fe.traceCount());
}

TEST(BatchedEquiv, DuelSetSelectionReusesCachedSpeedups)
{
    telemetry::MetricRegistry registry;
    FitnessEvaluator fe(smallLlc(), trainingTraces());
    fe.attachTelemetry(registry, "fitness");
    const telemetry::Counter &replays =
        registry.counter("fitness.replays");

    const std::vector<Ipv> pop = randomPopulation(10, 16, 0x555);
    fe.evaluateAll(pop, IpvFamily::Gippr);
    const uint64_t replays_after_eval = replays.value();
    const std::vector<Ipv> duel =
        selectDuelSet(fe, IpvFamily::Gippr, pop, 4);
    EXPECT_EQ(duel.size(), 4u);
    EXPECT_EQ(replays.value(), replays_after_eval);
}

TEST(BatchedEquiv, SameSeedReportsAreByteIdenticalBatchOnOrOff)
{
    GaParams params;
    params.initialPopulation = 24;
    params.population = 12;
    params.elites = 3;
    params.generations = fullSweep() ? 4 : 3;
    params.threads = 2;
    params.seed = 0x777;
    params.seedIpvs = {Ipv::lru(16), Ipv::lruInsertion(16)};

    FitnessEvaluator batched(smallLlc(), trainingTraces());
    batched.setBatchWidth(32);
    const std::string want =
        reportFor(batched, IpvFamily::Gippr, params);

    FitnessEvaluator per_genome(smallLlc(), trainingTraces());
    per_genome.setBatchWidth(1);
    per_genome.setMemoCapacity(0);
    EXPECT_EQ(reportFor(per_genome, IpvFamily::Gippr, params), want);

    FitnessEvaluator odd_width(smallLlc(), trainingTraces());
    odd_width.setBatchWidth(7);
    EXPECT_EQ(reportFor(odd_width, IpvFamily::Gippr, params), want);
}

} // namespace
} // namespace gippr
