/**
 * @file
 * Tests for the shared-LLC multi-core serving simulator.
 *
 * Four layers:
 *
 *  1. Unit tests of the deterministic plumbing — interleaving
 *     schedules, mix parsing, way-mask construction, the UCP utility
 *     monitor and the analytic fairness metrics (hand-computed
 *     expectations).
 *  2. The 1-core bit-identity gate: a 1-core mix replayed through the
 *     shared model (either backend, either duel scope, either
 *     schedule) must return per-core ReplayStats bit-identical to the
 *     existing single-core ReplayEngine on the same trace and warmup
 *     boundary.  This is what makes the multicore mode a strict
 *     generalization of the single-core experiments.
 *  3. The scalar-vs-fast differential oracle: the packed
 *     fastpath::SoaCacheModel and its scalar twin ScalarModel
 *     (SetAssocCache + the production policy object) take one random shared-access stream
 *     and must return the same Step on every access, and on real 2-
 *     and 4-core mixes they replay the identical interleaved stream
 *     and must agree on every core's full statistics (counters, duel
 *     state) across policies, geometries, schedules, duel scopes and
 *     partitioning modes.
 *  4. End-to-end properties: run-to-run determinism, shared-LLC
 *     contention (two loops that each fit alone thrash LRU together,
 *     and 2-DGIPPR recovers part of it), utility repartitioning
 *     activity, and full way masks degenerating to the unpartitioned
 *     transition.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/config.hh"
#include "core/vectors.hh"
#include "sim/fastpath/engine.hh"
#include "sim/fastpath/hierarchy.hh"
#include "sim/fastpath/scalar_model.hh"
#include "sim/fastpath/soa_cache.hh"
#include "sim/multicore/engine.hh"
#include "sim/multicore/fairness.hh"
#include "sim/multicore/mix.hh"
#include "sim/multicore/partition.hh"
#include "sim/multicore/schedule.hh"
#include "sim/trace_cache.hh"
#include "util/bitops.hh"
#include "util/rng.hh"
#include "workloads/suite.hh"

namespace gippr
{
namespace
{

using namespace gippr::multicore;

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

/** smallLlc's 64 sets at 8 ways: runs the packed model's 8-way row
 *  scans, victims and masked victims. */
CacheConfig
smallLlc8()
{
    CacheConfig cfg = smallLlc();
    cfg.sizeBytes = 32 * 1024; // 64 sets at 8 ways
    cfg.assoc = 8;
    return cfg;
}

using NamedSpecs = std::vector<std::pair<std::string, fastpath::ReplaySpec>>;

/** The seven replayable core policies at 16 ways. */
NamedSpecs
allSpecs()
{
    return {{"LRU", fastpath::lruSpec()},
            {"LIP", fastpath::lipSpec()},
            {"GIPLR", fastpath::giplrSpec(local_vectors::giplr())},
            {"PLRU", fastpath::plruSpec()},
            {"GIPPR", fastpath::gipprSpec(local_vectors::gippr())},
            {"DGIPPR2", fastpath::dgipprSpec(local_vectors::dgippr2())},
            {"DGIPPR4", fastpath::dgipprSpec(local_vectors::dgippr4())}};
}

/** The seven replayable core policies at 8 ways, the IPV kinds with
 *  vectors of their own. */
NamedSpecs
specs8()
{
    const Ipv a({0, 0, 1, 0, 3, 0, 1, 2, 5});
    const Ipv b({0, 1, 0, 2, 1, 4, 3, 6, 7});
    return {{"LRU", fastpath::lruSpec()},
            {"LIP", fastpath::lipSpec()},
            {"GIPLR", fastpath::giplrSpec(a)},
            {"PLRU", fastpath::plruSpec()},
            {"GIPPR", fastpath::gipprSpec(b)},
            {"DGIPPR2", fastpath::dgipprSpec(
                            {Ipv::lru(8), Ipv::lruInsertion(8)})},
            {"DGIPPR4", fastpath::dgipprSpec(
                            {Ipv::lru(8), Ipv::lruInsertion(8), a, b})}};
}

/** One policy on one geometry the shared model is gated on. */
struct GateCase
{
    CacheConfig llc;
    std::string name;
    fastpath::ReplaySpec spec;
};

/** The 16-way policies, then the 8-way ones. */
std::vector<GateCase>
gateCases()
{
    std::vector<GateCase> cases;
    for (const auto &[llc, specs] :
         {std::pair{smallLlc(), allSpecs()},
          std::pair{smallLlc8(), specs8()}})
        for (const auto &[name, spec] : specs)
            cases.push_back(
                {llc, name + "/" + std::to_string(llc.assoc) + "w",
                 spec});
    return cases;
}

/** Shared suite + trace memo so every test reuses filtered traces. */
const SyntheticSuite &
testSuite()
{
    static SyntheticSuite suite([] {
        SuiteParams p;
        p.llcBlocks = 16384;
        p.accessesPerSimpoint = 60'000;
        p.baseSeed = 0x5eed;
        return p;
    }());
    return suite;
}

std::vector<CoreStream>
streamsFor(const std::string &mix_text, unsigned cores)
{
    static LlcTraceCache cache;
    HierarchyConfig hier;
    hier.llc = CacheConfig::benchLlc();
    return buildCoreStreams(parseMixSpec(mix_text, cores), testSuite(),
                            hier, &cache);
}

RunParams
baseParams(const fastpath::ReplaySpec &spec,
           const CacheConfig &llc = smallLlc())
{
    RunParams params;
    params.llc = llc;
    params.policy = spec;
    return params;
}

// ---------------------------------------------------------------- 1.

TEST(MulticoreSchedule, RoundRobinSkipsFinishedStreams)
{
    Interleaver il(Schedule::RoundRobin, {3, 1, 2}, {1, 1, 1});
    std::vector<int> order;
    for (int c; (c = il.next()) >= 0;)
        order.push_back(c);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 2, 0}));
    EXPECT_EQ(il.next(), -1);
}

TEST(MulticoreSchedule, WeightedStrideFavorsHeavyCores)
{
    // Virtual times (issued+1)/weight with weights {2, 1}: core 0
    // issues twice per core-1 issue, ties to the lower core id.
    Interleaver il(Schedule::Weighted, {4, 2}, {2, 1});
    std::vector<int> order;
    for (int c; (c = il.next()) >= 0;)
        order.push_back(c);
    EXPECT_EQ(order, (std::vector<int>{0, 0, 1, 0, 0, 1}));
    EXPECT_EQ(il.issued(0), 4u);
    EXPECT_EQ(il.issued(1), 2u);
}

TEST(MulticoreSchedule, SingleCoreDegeneratesToSequential)
{
    for (Schedule s : {Schedule::RoundRobin, Schedule::Weighted}) {
        Interleaver il(s, {5}, {3});
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(il.next(), 0);
        EXPECT_EQ(il.next(), -1);
    }
}

TEST(MulticoreSchedule, ParseNames)
{
    EXPECT_EQ(parseSchedule("rr"), Schedule::RoundRobin);
    EXPECT_EQ(parseSchedule("round-robin"), Schedule::RoundRobin);
    EXPECT_EQ(parseSchedule("weighted"), Schedule::Weighted);
    EXPECT_THROW(parseSchedule("fifo"), std::runtime_error);
}

TEST(MulticoreMix, PresetsHaveFourTenants)
{
    const std::vector<MixSpec> &presets = presetMixes();
    ASSERT_EQ(presets.size(), 5u);
    for (const MixSpec &m : presets)
        EXPECT_EQ(m.tenants.size(), 4u) << m.name;
    const MixSpec kv = parseMixSpec("kv-serving", 4);
    ASSERT_EQ(kv.tenants.size(), 4u);
    EXPECT_EQ(kv.tenants[0].workload, "kv_zipf_4t");
    EXPECT_EQ(kv.tenants[0].weight, 2u);
    EXPECT_EQ(kv.tenants[1].weight, 4u);
}

TEST(MulticoreMix, CustomListsCycleAndTruncate)
{
    const MixSpec cycled = parseMixSpec("loop_thrash:2,zipf_hot", 3);
    ASSERT_EQ(cycled.tenants.size(), 3u);
    EXPECT_EQ(cycled.tenants[0].workload, "loop_thrash");
    EXPECT_EQ(cycled.tenants[0].weight, 2u);
    EXPECT_EQ(cycled.tenants[1].workload, "zipf_hot");
    EXPECT_EQ(cycled.tenants[2].workload, "loop_thrash");
    EXPECT_EQ(cycled.tenants[2].weight, 2u);

    const MixSpec truncated = parseMixSpec("balanced", 2);
    EXPECT_EQ(truncated.tenants.size(), 2u);

    EXPECT_THROW(parseMixSpec("", 2), std::runtime_error);
    EXPECT_THROW(parseMixSpec("loop_thrash:0", 2), std::runtime_error);
}

TEST(MulticoreMix, MalformedWeightIsFatalAndNamed)
{
    // A fatal spec error aborts through the noexcept wrapper, so the
    // death test sees fatal()'s message on stderr.
    EXPECT_DEATH(([&]() noexcept {
                     parseMixSpec("zipf_hot:-1,loop_fit", 2);
                 })(),
                 "mix weight of zipf_hot='-1' is not an unsigned integer");
    EXPECT_DEATH(([&]() noexcept { parseMixSpec("zipf_hot:2x", 1); })(),
                 "mix weight of zipf_hot='2x'");
    EXPECT_DEATH(([&]() noexcept { parseMixSpec("zipf_hot:", 1); })(),
                 "mix weight of zipf_hot=''");
}

TEST(MulticoreMix, UnknownWorkloadIsFatal)
{
    EXPECT_THROW(streamsFor("no_such_workload", 1), std::runtime_error);
}

TEST(MulticoreMix, ResolvesSuiteAndKvFamily)
{
    const std::vector<CoreStream> streams =
        streamsFor("zipf_hot,kv_zipf_4t", 2);
    ASSERT_EQ(streams.size(), 2u);
    EXPECT_EQ(streams[0].workload, "zipf_hot");
    EXPECT_EQ(streams[1].workload, "kv_zipf_4t");
    for (const CoreStream &s : streams) {
        ASSERT_NE(s.trace, nullptr);
        EXPECT_GT(s.trace->size(), 0u);
        EXPECT_GT(s.instructions, 0u);
    }
}

TEST(MulticoreMix, BuildsOnlyTheFirstSimpoint)
{
    const WorkloadSpec &full = testSuite().spec("zipf_twophase");
    ASSERT_GT(full.simpoints.size(), 1u);
    HierarchyConfig hier;
    hier.llc = CacheConfig::benchLlc();

    LlcTraceCache cache;
    const std::vector<CoreStream> streams = buildCoreStreams(
        parseMixSpec("zipf_twophase", 1), testSuite(), hier, &cache);
    ASSERT_EQ(streams.size(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    // The build was keyed by the one-simpoint spec ...
    WorkloadSpec first = full;
    first.simpoints.resize(1);
    const auto entries = cache.get(first, hier, nullptr);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(entries->size(), 1u);
    EXPECT_EQ(entries->front().demandTrace, streams[0].trace);

    // ... and its stream is the full spec's first simpoint.
    LlcTraceCache whole;
    const auto all = whole.get(full, hier, nullptr);
    ASSERT_EQ(all->size(), full.simpoints.size());
    EXPECT_EQ(all->front().demandTrace->records(),
              streams[0].trace->records());
    EXPECT_EQ(all->front().instructions, streams[0].instructions);
}

TEST(MulticoreMix, ConcurrentBuildMatchesSerialPerTenantLookups)
{
    HierarchyConfig hier;
    hier.llc = CacheConfig::benchLlc();
    // A repeated tenant (with its own weight), then a preset of four
    // distinct tenants.
    for (const char *text :
         {"zipf_hot:3,loop_fit,zipf_hot,stream_pure", "balanced"}) {
        SCOPED_TRACE(text);
        const MixSpec mix = parseMixSpec(text, 4);
        LlcTraceCache cache;
        const std::vector<CoreStream> streams =
            buildCoreStreams(mix, testSuite(), hier, &cache);
        ASSERT_EQ(streams.size(), mix.tenants.size());

        // The serial reference: one lookup per tenant, in order.
        LlcTraceCache serial;
        for (size_t i = 0; i < streams.size(); ++i) {
            const TenantSpec &t = mix.tenants[i];
            WorkloadSpec first = testSuite().spec(t.workload);
            first.simpoints.resize(1);
            const auto ref = serial.get(first, hier, nullptr);
            EXPECT_EQ(streams[i].workload, t.workload);
            EXPECT_EQ(streams[i].weight, t.weight);
            EXPECT_EQ(streams[i].instructions, ref->front().instructions);
            EXPECT_EQ(streams[i].trace->records(),
                      ref->front().demandTrace->records());
            for (size_t j = 0; j < i; ++j) {
                if (mix.tenants[j].workload == t.workload)
                    EXPECT_EQ(streams[j].trace, streams[i].trace);
                else
                    EXPECT_NE(streams[j].trace, streams[i].trace);
            }
        }
        EXPECT_EQ(cache.hits(), serial.hits());
        EXPECT_EQ(cache.misses(), serial.misses());

        // Built again over the same cache, every tenant is a hit.
        const uint64_t hits = cache.hits();
        const std::vector<CoreStream> again =
            buildCoreStreams(mix, testSuite(), hier, &cache);
        EXPECT_EQ(cache.hits(), hits + mix.tenants.size());
        EXPECT_EQ(cache.misses(), serial.misses());
        for (size_t i = 0; i < again.size(); ++i)
            EXPECT_EQ(again[i].trace, streams[i].trace);
    }
}

TEST(MulticorePartition, MasksFromCountsAreContiguousAndDisjoint)
{
    const std::vector<uint64_t> masks = masksFromCounts({8, 4, 2, 2}, 16);
    ASSERT_EQ(masks.size(), 4u);
    EXPECT_EQ(masks[0], 0x00FFull);
    EXPECT_EQ(masks[1], 0x0F00ull);
    EXPECT_EQ(masks[2], 0x3000ull);
    EXPECT_EQ(masks[3], 0xC000ull);

    // Leftover ways join the last core so the cache stays allocatable.
    const std::vector<uint64_t> slack = masksFromCounts({8, 4}, 16);
    EXPECT_EQ(slack[0], 0x00FFull);
    EXPECT_EQ(slack[1], 0xFF00ull);

    // Overcommitted or degenerate counts are hard errors even in
    // builds without GIPPR_CHECK (the sum would wrap the leftover
    // arithmetic otherwise).
    EXPECT_THROW(masksFromCounts({9, 9}, 16), std::runtime_error);
    EXPECT_THROW(masksFromCounts({0, 4}, 16), std::runtime_error);
    EXPECT_THROW(masksFromCounts({}, 16), std::runtime_error);
}

TEST(MulticorePartition, EvenSplitCoversAllWays)
{
    EXPECT_EQ(evenSplit(4, 16), (std::vector<unsigned>{4, 4, 4, 4}));
    EXPECT_EQ(evenSplit(3, 16), (std::vector<unsigned>{6, 5, 5}));
}

TEST(MulticorePartition, ParseSpecs)
{
    EXPECT_EQ(parsePartition("none", 4).mode, PartitionMode::None);
    const PartitionConfig st = parsePartition("static:8,4,2,2", 4);
    EXPECT_EQ(st.mode, PartitionMode::Static);
    EXPECT_EQ(st.staticWays, (std::vector<unsigned>{8, 4, 2, 2}));
    const PartitionConfig ut = parsePartition("utility:4096", 4);
    EXPECT_EQ(ut.mode, PartitionMode::Utility);
    EXPECT_EQ(ut.repartitionEvery, 4096u);
    EXPECT_THROW(parsePartition("static:8,4", 4), std::runtime_error);
    EXPECT_THROW(parsePartition("bogus", 4), std::runtime_error);
}

TEST(MulticorePartition, MalformedCountsAreFatalAndNamed)
{
    EXPECT_DEATH(([&]() noexcept {
                     parsePartition("static:8x,8", 2);
                 })(),
                 "static partition way count='8x' is not an unsigned");
    EXPECT_DEATH(([&]() noexcept {
                     parsePartition("static:8,-8", 2);
                 })(),
                 "static partition way count='-8'");
    EXPECT_DEATH(([&]() noexcept {
                     parsePartition("static:4294967296,8", 2);
                 })(),
                 "static partition way count='4294967296'");
    EXPECT_DEATH(([&]() noexcept {
                     parsePartition("utility:1e6", 2);
                 })(),
                 "utility repartition interval='1e6'");
}

TEST(MulticorePartition, UtilityMonitorHistogramsAndAllocation)
{
    UtilityMonitor monitor(/*sets=*/64, /*assoc=*/4, /*cores=*/2,
                           /*sample_every=*/32);
    EXPECT_TRUE(monitor.sampled(0));
    EXPECT_FALSE(monitor.sampled(1));
    EXPECT_TRUE(monitor.sampled(32));

    // Core 0: tags 1, 2, 1 -> miss, miss, hit at stack position 1.
    monitor.observe(0, 0, 1);
    monitor.observe(0, 0, 2);
    monitor.observe(0, 0, 1);
    EXPECT_EQ(monitor.shadowMisses(0), 2u);
    EXPECT_EQ(monitor.hitHistogram(0)[1], 1u);

    // Core 0 has all the utility, so it gets every contested way.
    const std::vector<unsigned> counts = monitor.allocate();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0] + counts[1], 4u);
    EXPECT_GE(counts[0], counts[1]);
    EXPECT_GE(counts[1], 1u);

    // With 1 way core 0 still misses the position-1 hit; with 2 it
    // captures it.
    EXPECT_EQ(monitor.missesAt(0, 1), 3u);
    EXPECT_EQ(monitor.missesAt(0, 2), 2u);

    monitor.decay();
    EXPECT_EQ(monitor.shadowMisses(0), 1u);
    EXPECT_EQ(monitor.hitHistogram(0)[1], 0u);
}

/**
 * The vector-per-set monitor the flat one replaced, kept as the
 * differential reference: one MRU-first std::vector of tags per core
 * and sampled set, sampled by set % stride and indexed by set / stride.
 */
class VectorUtilityMonitor
{
  public:
    VectorUtilityMonitor(uint64_t sets, unsigned assoc, unsigned cores,
                         uint64_t sample_every)
        : assoc_(assoc), sampleEvery_(sample_every),
          sampledSets_((sets + sample_every - 1) / sample_every),
          shadow_(cores * sampledSets_),
          hits_(cores, std::vector<uint64_t>(assoc, 0)), misses_(cores, 0)
    {
    }

    bool sampled(uint64_t set) const { return set % sampleEvery_ == 0; }

    void
    observe(unsigned core, uint64_t set, uint64_t tag)
    {
        std::vector<uint64_t> &row =
            shadow_[core * sampledSets_ + set / sampleEvery_];
        auto it = std::find(row.begin(), row.end(), tag);
        if (it != row.end()) {
            ++hits_[core][static_cast<size_t>(it - row.begin())];
            row.erase(it);
            row.insert(row.begin(), tag);
            return;
        }
        ++misses_[core];
        if (row.size() == assoc_)
            row.pop_back();
        row.insert(row.begin(), tag);
    }

    std::vector<unsigned>
    allocate() const
    {
        const auto cores = static_cast<unsigned>(hits_.size());
        std::vector<unsigned> counts(cores, 1);
        for (unsigned given = cores; given < assoc_; ++given) {
            unsigned best = 0;
            uint64_t best_gain = 0;
            bool found = false;
            for (unsigned c = 0; c < cores; ++c) {
                if (counts[c] >= assoc_)
                    continue;
                const uint64_t gain = hits_[c][counts[c]];
                if (!found || gain > best_gain) {
                    best = c;
                    best_gain = gain;
                    found = true;
                }
            }
            ++counts[best];
        }
        return counts;
    }

    void
    decay()
    {
        for (auto &h : hits_)
            for (uint64_t &v : h)
                v >>= 1;
        for (uint64_t &m : misses_)
            m >>= 1;
    }

    unsigned assoc_;
    uint64_t sampleEvery_;
    uint64_t sampledSets_;
    std::vector<std::vector<uint64_t>> shadow_;
    std::vector<std::vector<uint64_t>> hits_;
    std::vector<uint64_t> misses_;
};

TEST(MulticorePartition, FlatMonitorMatchesVectorMonitor)
{
    // Strides 3 and 32 do not divide 100 sets, so the last sampled set
    // sits less than a stride from the end.
    constexpr uint64_t kSets = 100;
    constexpr unsigned kAssoc = 8;
    constexpr unsigned kCores = 3;
    for (const uint64_t stride : {1u, 3u, 4u, 32u}) {
        SCOPED_TRACE("stride " + std::to_string(stride));
        UtilityMonitor flat(kSets, kAssoc, kCores, stride);
        VectorUtilityMonitor ref(kSets, kAssoc, kCores, stride);
        Rng rng(0xC0FFEE + stride);
        for (int i = 0; i < 60'000; ++i) {
            const uint64_t set = rng.nextBounded(kSets);
            const auto core = static_cast<unsigned>(rng.nextBounded(kCores));
            // Twelve tags per set over eight ways: hits at every stack
            // position, plus evictions from full rows.
            const uint64_t tag = rng.nextBounded(12);
            ASSERT_EQ(flat.sampled(set), ref.sampled(set)) << "set " << set;
            if (!ref.sampled(set))
                continue;
            flat.observe(core, set, tag);
            ref.observe(core, set, tag);
            if (i % 5000 == 4999) {
                for (unsigned c = 0; c < kCores; ++c) {
                    ASSERT_EQ(flat.hitHistogram(c), ref.hits_[c]);
                    ASSERT_EQ(flat.shadowMisses(c), ref.misses_[c]);
                }
                ASSERT_EQ(flat.allocate(), ref.allocate());
                flat.decay();
                ref.decay();
            }
        }
        for (unsigned c = 0; c < kCores; ++c) {
            EXPECT_EQ(flat.hitHistogram(c), ref.hits_[c]);
            EXPECT_EQ(flat.shadowMisses(c), ref.misses_[c]);
            EXPECT_GT(ref.misses_[c], 0u);
            EXPECT_GT(ref.hits_[c][kAssoc - 1], 0u);
        }
        EXPECT_EQ(flat.allocate(), ref.allocate());
    }
}

TEST(MulticoreFairness, HandComputedMetrics)
{
    const LatencyModel model; // 0.25 CPI, 35-cycle hit, 200-cycle miss
    fastpath::CounterBank solo;
    solo.demandAccesses = 100;
    solo.demandMisses = 10;
    fastpath::CounterBank shared = solo;
    shared.demandMisses = 20;

    // solo: 1000*0.25 + 90*35 + 10*200 = 5400 cycles
    // shared: 1000*0.25 + 80*35 + 20*200 = 7050 cycles
    EXPECT_DOUBLE_EQ(modelCycles(model, 1000, solo), 5400.0);
    EXPECT_DOUBLE_EQ(modelCycles(model, 1000, shared), 7050.0);

    const FairnessReport report =
        computeFairness(model, {1000}, {shared}, {solo});
    ASSERT_EQ(report.cores.size(), 1u);
    EXPECT_DOUBLE_EQ(report.cores[0].soloIpc, 1000.0 / 5400.0);
    EXPECT_DOUBLE_EQ(report.cores[0].sharedIpc, 1000.0 / 7050.0);
    EXPECT_DOUBLE_EQ(report.cores[0].slowdown, 7050.0 / 5400.0);
    EXPECT_DOUBLE_EQ(report.cores[0].mpki, 20.0);
    EXPECT_DOUBLE_EQ(report.weightedSpeedup, 5400.0 / 7050.0);
    EXPECT_DOUBLE_EQ(report.maxSlowdown, 7050.0 / 5400.0);
    EXPECT_DOUBLE_EQ(report.throughput, 1000.0 / 7050.0);
}

// ---------------------------------------------------------------- 2.

TEST(MulticoreIdentity, SharedModelMatchesReplayEngine)
{
    const std::vector<CoreStream> streams = streamsFor("zipf_hot", 1);
    ASSERT_EQ(streams.size(), 1u);
    const size_t warmup = static_cast<size_t>(
        static_cast<double>(streams[0].trace->size()) * (1.0 / 3.0));

    for (const auto &[llc, name, spec] : gateCases()) {
        const fastpath::FastReplayEngine fast(1);
        const fastpath::ScalarReplayEngine scalar;
        const fastpath::ReplayStats fast_ref =
            fast.replay(spec, llc, *streams[0].trace, warmup);
        const fastpath::ReplayStats scalar_ref =
            scalar.replay(spec, llc, *streams[0].trace, warmup);

        for (Backend backend : {Backend::Fast, Backend::Scalar}) {
            const fastpath::ReplayStats &ref =
                backend == Backend::Fast ? fast_ref : scalar_ref;
            for (DuelScope scope :
                 {DuelScope::Global, DuelScope::PerCore}) {
                for (Schedule sched :
                     {Schedule::RoundRobin, Schedule::Weighted}) {
                    RunParams params = baseParams(spec, llc);
                    params.backend = backend;
                    params.duelScope = scope;
                    params.schedule = sched;
                    const RunResult res =
                        runSharedLlc(streams, params);
                    ASSERT_EQ(res.cores.size(), 1u);
                    EXPECT_EQ(res.cores[0].stats, ref)
                        << name << " backend=" << backendName(backend)
                        << " duel=" << duelScopeName(scope)
                        << " sched=" << scheduleName(sched);
                    // Solo baseline replays the same trace: identical.
                    EXPECT_EQ(res.cores[0].solo, ref) << name;
                    EXPECT_DOUBLE_EQ(res.fairness.weightedSpeedup, 1.0)
                        << name;
                    EXPECT_DOUBLE_EQ(res.fairness.maxSlowdown, 1.0)
                        << name;
                }
            }
            // The CLI's --reference-single path must sit exactly on
            // the ReplayEngine result too.
            RunParams params = baseParams(spec, llc);
            params.backend = backend;
            const RunResult ref_res =
                runSingleCoreReference(streams[0], params);
            EXPECT_EQ(ref_res.cores[0].stats, ref) << name;
            EXPECT_EQ(ref_res.cores[0].solo, ref) << name;
        }
    }
}

TEST(MulticoreIdentity, MeasuredInstructionWindow)
{
    const std::vector<CoreStream> streams = streamsFor("loop_fit", 1);
    RunParams params = baseParams(fastpath::lruSpec());
    const RunResult res = runSharedLlc(streams, params);
    const uint64_t len = streams[0].trace->size();
    const auto warm = static_cast<uint64_t>(
        static_cast<double>(len) * params.warmupFraction);
    const uint64_t expect = static_cast<uint64_t>(
        static_cast<unsigned __int128>(streams[0].instructions) *
        (len - warm) / len);
    EXPECT_EQ(res.cores[0].measuredInstructions, expect);
    EXPECT_EQ(res.cores[0].instructions, streams[0].instructions);
}

// ---------------------------------------------------------------- 3.

void
expectBackendsAgree(const std::vector<CoreStream> &streams,
                    RunParams params, const std::string &label)
{
    params.computeSolo = false; // solo paths are covered elsewhere
    params.backend = Backend::Fast;
    const RunResult fast = runSharedLlc(streams, params);
    params.backend = Backend::Scalar;
    const RunResult scalar = runSharedLlc(streams, params);
    ASSERT_EQ(fast.cores.size(), scalar.cores.size());
    for (size_t c = 0; c < fast.cores.size(); ++c)
        EXPECT_EQ(fast.cores[c].stats, scalar.cores[c].stats)
            << label << " core " << c;
    EXPECT_EQ(fast.wayCounts, scalar.wayCounts) << label;
    EXPECT_EQ(fast.repartitions, scalar.repartitions) << label;
}

TEST(MulticoreOracle, ScalarVsFastOnMultiCoreMixes)
{
    const std::vector<std::pair<std::string, unsigned>> mixes = {
        {"balanced", 2}, {"kv-serving", 4}};
    for (const auto &[mix, cores] : mixes) {
        const std::vector<CoreStream> streams = streamsFor(mix, cores);
        for (const auto &[llc, name, spec] : gateCases()) {
            const std::string label = mix + "/" + name;
            // Free-for-all, strict round-robin, one global duel.
            expectBackendsAgree(streams, baseParams(spec, llc),
                                label + "/rr-global-none");

            // Static partition under both duel scopes; weighted
            // arrivals with the per-core duels.
            for (DuelScope scope :
                 {DuelScope::Global, DuelScope::PerCore}) {
                RunParams contended = baseParams(spec, llc);
                contended.duelScope = scope;
                if (scope == DuelScope::PerCore)
                    contended.schedule = Schedule::Weighted;
                contended.partition.mode = PartitionMode::Static;
                contended.partition.staticWays =
                    evenSplit(cores, llc.assoc);
                expectBackendsAgree(
                    streams, contended,
                    label + "/" + duelScopeName(scope) + "-static");
            }

            // Utility repartitioning exercises the monitor + mask
            // flips on both backends at the same ticks.
            if (spec.kind == fastpath::FastPolicyKind::Dgippr &&
                spec.ipvs.size() == 2) {
                RunParams utility = baseParams(spec, llc);
                utility.duelScope = DuelScope::PerCore;
                utility.partition.mode = PartitionMode::Utility;
                utility.partition.repartitionEvery = 8192;
                expectBackendsAgree(streams, utility, label + "/utility");
            }
        }
    }
}

TEST(MulticoreOracle, SharedAccessStepsMatch)
{
    // One random (set, tag, type, domain, mask) stream through the
    // packed model and the scalar one, compared access by access: a
    // victim that differs mid-run and later heals still fails here.
    // Four cores; each switch period picks a way split — none (full
    // masks), even, or lopsided — so masks flip under live lines.
    // RRIP and PDP keep no recency order, so they take full masks
    // only; their domains share DRRIP's one duel.
    constexpr unsigned kCores = 4;
    for (auto [llc, specs] :
         {std::pair{smallLlc(), allSpecs()},
          std::pair{smallLlc8(), specs8()}}) {
        specs.push_back(
            {"BRRIP", fastpath::rripSpec(RripPolicy::Mode::Bimodal)});
        specs.push_back(
            {"DRRIP", fastpath::rripSpec(RripPolicy::Mode::Dynamic)});
        specs.push_back({"PDP", fastpath::pdpSpec()});
        const std::vector<std::vector<uint64_t>> splits = {
            std::vector<uint64_t>(kCores, lowMask(llc.assoc)),
            masksFromCounts(evenSplit(kCores, llc.assoc), llc.assoc),
            masksFromCounts({llc.assoc - 3, 1, 1, 1}, llc.assoc)};
        for (const auto &[name, spec] : specs) {
            const size_t usable =
                fastpath::keepsRecencyOrder(spec) ? splits.size() : 1;
            const std::string label =
                name + "/" + std::to_string(llc.assoc) + "w";
            fastpath::SoaCacheModel fast(spec, llc, kCores);
            fastpath::ScalarModel scalar(spec, llc, kCores);
            Rng rng(0x5ca1ab1e);
            const std::vector<uint64_t> *masks = &splits[0];
            for (int i = 0; i < 100'000; ++i) {
                if (i % 5000 == 0)
                    masks = &splits[rng.nextBounded(usable)];
                const auto core =
                    static_cast<unsigned>(rng.nextBounded(kCores));
                const uint64_t set = rng.nextBounded(llc.sets());
                const uint64_t tag = rng.nextBounded(3 * llc.assoc);
                const uint64_t roll = rng.nextBounded(10);
                const AccessType type = roll < 7   ? AccessType::Load
                                        : roll < 9 ? AccessType::Store
                                                   : AccessType::Writeback;
                const fastpath::SoaCacheModel::Step a =
                    fast.access(set, tag, type, core, (*masks)[core]);
                const fastpath::ScalarModel::Step b =
                    scalar.access(set, tag, type, core, (*masks)[core]);
                ASSERT_EQ(a.hit, b.hit) << label << " access " << i;
                ASSERT_EQ(a.way, b.way) << label << " access " << i;
                ASSERT_EQ(a.evicted, b.evicted) << label << " access " << i;
                ASSERT_EQ(a.evictedDirty, b.evictedDirty)
                    << label << " access " << i;
                ASSERT_EQ(a.evictedTag, b.evictedTag)
                    << label << " access " << i;
            }
            for (unsigned d = 0; d < kCores; ++d) {
                fastpath::ReplayStats want;
                fastpath::ReplayStats got;
                fast.duelStats(d, want);
                scalar.duelStats(d, got);
                EXPECT_EQ(want, got) << label << " domain " << d;
            }
        }
    }
}

// ---------------------------------------------------------------- 4.

TEST(MulticoreEndToEnd, RunToRunDeterminism)
{
    const std::vector<CoreStream> streams = streamsFor("kv-serving", 4);
    RunParams params =
        baseParams(fastpath::dgipprSpec(local_vectors::dgippr4()));
    params.schedule = Schedule::Weighted;
    params.duelScope = DuelScope::PerCore;
    const RunResult a = runSharedLlc(streams, params);
    const RunResult b = runSharedLlc(streams, params);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (size_t c = 0; c < a.cores.size(); ++c) {
        EXPECT_EQ(a.cores[c].stats, b.cores[c].stats);
        EXPECT_EQ(a.cores[c].solo, b.cores[c].solo);
        EXPECT_EQ(a.cores[c].measuredInstructions,
                  b.cores[c].measuredInstructions);
    }
    EXPECT_EQ(a.fairness.weightedSpeedup, b.fairness.weightedSpeedup);
    EXPECT_EQ(a.fairness.maxSlowdown, b.fairness.maxSlowdown);
}

/** A core's LLC stream: a loop over @p blocks blocks from @p base. */
CoreStream
loopStream(uint64_t blocks, uint64_t base, size_t accesses)
{
    auto trace = std::make_shared<Trace>();
    for (size_t i = 0; i < accesses; ++i) {
        MemRecord r;
        r.addr = (base + i % blocks) * 64;
        r.instGap = 6;
        trace->append(r);
    }
    const uint64_t instructions = trace->instructions();
    return {"loop" + std::to_string(blocks), std::move(trace),
            instructions, 1};
}

/** Two 700-block loops: each fits smallLlc()'s 1024 blocks alone,
 *  together they do not. */
std::vector<CoreStream>
contendedLoops()
{
    return {loopStream(700, 0, 40'000), loopStream(700, 1 << 20, 40'000)};
}

TEST(Multicore, BadRunInputIsFatal)
{
    // These guards hold in release builds, where the packed model's
    // own GIPPR_CHECKs compile out.
    const std::vector<CoreStream> streams = {loopStream(64, 0, 1000)};
    RunParams wide = baseParams(fastpath::lruSpec());
    wide.llc.assoc = 128;
    wide.llc.sizeBytes = 128 * 64 * 64;
    EXPECT_DEATH(([&]() noexcept { runSharedLlc(streams, wide); })(),
                 "shared LLC: LRU does not run on the 128-way, 64-set llc");

    RunParams warm = baseParams(fastpath::lruSpec());
    warm.warmupFraction = 1.5;
    EXPECT_DEATH(([&]() noexcept { runSharedLlc(streams, warm); })(),
                 "shared LLC: warmup fraction 1.5.* is outside \\[0, 1\\]");

    std::vector<CoreStream> missing = streams;
    missing.push_back({"ghost", nullptr, 0, 1});
    EXPECT_DEATH(([&]() noexcept {
                     runSharedLlc(missing, baseParams(fastpath::lruSpec()));
                 })(),
                 "shared LLC: core 1 \\(ghost\\) has no trace");

    EXPECT_DEATH(([&]() noexcept {
                     runSharedLlc({}, baseParams(fastpath::lruSpec()));
                 })(),
                 "shared LLC: no core streams");

    RunParams never = baseParams(fastpath::lruSpec());
    never.partition.mode = PartitionMode::Utility;
    never.partition.repartitionEvery = 0;
    EXPECT_DEATH(([&]() noexcept { runSharedLlc(streams, never); })(),
                 "shared LLC: utility repartition interval must be >= 1");
}

TEST(Multicore, PartialWayMaskWithoutRecencyOrderIsFatal)
{
    // SetAssocCache's message, on both backends: RRIP and PDP have no
    // way closest to eviction within a mask.
    for (const auto &spec : {fastpath::rripSpec(RripPolicy::Mode::Dynamic),
                             fastpath::pdpSpec()}) {
        for (const Backend backend : {Backend::Fast, Backend::Scalar}) {
            RunParams params = baseParams(spec);
            params.backend = backend;
            params.partition.mode = PartitionMode::Static;
            params.partition.staticWays = {12, 4};
            EXPECT_DEATH(([&]() noexcept {
                             runSharedLlc(contendedLoops(), params);
                         })(),
                         "llc: " + spec.name() +
                             " keeps no recency order, so it cannot "
                             "fill within a way mask");
        }
    }
}

TEST(Multicore, SharedLlcContentionHurts)
{
    const RunResult lru =
        runSharedLlc(contendedLoops(), baseParams(fastpath::lruSpec()));
    ASSERT_EQ(lru.cores.size(), 2u);
    EXPECT_GT(lru.cores[0].stats.measured.demandMisses,
              lru.cores[0].solo.measured.demandMisses);
}

TEST(Multicore, AdaptivePolicyBeatsLruUnderContention)
{
    const RunResult lru =
        runSharedLlc(contendedLoops(), baseParams(fastpath::lruSpec()));
    const RunResult dg = runSharedLlc(
        contendedLoops(),
        baseParams(fastpath::dgipprSpec(local_vectors::dgippr2())));
    EXPECT_LT(dg.measured.demandMisses, lru.measured.demandMisses);
}

TEST(Multicore, DeterministicAcrossRuns)
{
    const std::vector<CoreStream> streams = {
        loopStream(500, 0, 20'000), loopStream(900, 1 << 20, 20'000)};
    const RunParams params =
        baseParams(fastpath::dgipprSpec(local_vectors::dgippr2()));
    const RunResult a = runSharedLlc(streams, params);
    const RunResult b = runSharedLlc(streams, params);
    ASSERT_EQ(a.cores.size(), 2u);
    ASSERT_EQ(b.cores.size(), 2u);
    for (size_t c = 0; c < a.cores.size(); ++c) {
        EXPECT_EQ(a.cores[c].stats, b.cores[c].stats);
        EXPECT_EQ(a.cores[c].solo, b.cores[c].solo);
    }
    EXPECT_EQ(a.measured.demandMisses, b.measured.demandMisses);
}

TEST(MulticoreEndToEnd, UtilityRepartitioningActivates)
{
    const std::vector<CoreStream> streams = streamsFor("balanced", 4);
    RunParams params = baseParams(fastpath::lruSpec());
    params.computeSolo = false;
    params.partition.mode = PartitionMode::Utility;
    params.partition.repartitionEvery = 4096;
    const RunResult res = runSharedLlc(streams, params);
    EXPECT_GT(res.repartitions, 0u);
    ASSERT_EQ(res.wayCounts.size(), 4u);
    unsigned total = 0;
    for (unsigned w : res.wayCounts) {
        EXPECT_GE(w, 1u);
        total += w;
    }
    EXPECT_LE(total, params.llc.assoc);
}

TEST(MulticoreEndToEnd, FullMasksMatchUnpartitionedTransition)
{
    const fastpath::ReplaySpec spec =
        fastpath::gipprSpec(local_vectors::gippr());
    const CacheConfig llc = smallLlc();
    fastpath::SoaCacheModel plain(spec, llc);
    fastpath::SoaCacheModel masked(spec, llc);
    const uint64_t full = (1ull << llc.assoc) - 1;

    Rng rng(0xfeed);
    for (int i = 0; i < 200'000; ++i) {
        const uint64_t addr = rng.nextBounded(1 << 20) * 64ull;
        const AccessType type = rng.nextBool(0.2) ? AccessType::Store
                                                  : AccessType::Load;
        const uint64_t set = plain.setIndex(addr);
        const uint64_t tag = plain.tagOf(addr);
        const fastpath::SoaCacheModel::Step a =
            plain.access(set, tag, type);
        const fastpath::SoaCacheModel::Step b =
            masked.access(set, tag, type, 0, full);
        ASSERT_EQ(a.hit, b.hit) << "access " << i;
        ASSERT_EQ(a.way, b.way) << "access " << i;
        ASSERT_EQ(a.evicted, b.evicted) << "access " << i;
        ASSERT_EQ(a.evictedDirty, b.evictedDirty) << "access " << i;
        ASSERT_EQ(a.evictedTag, b.evictedTag) << "access " << i;
    }
    EXPECT_EQ(plain.stats(), masked.stats());
}

} // namespace
} // namespace gippr
