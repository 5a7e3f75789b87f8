/**
 * @file
 * Regression tests pinning the synthetic suite's generated contents
 * and the shared LLC trace memo.
 *
 * The bench/example harnesses materialize each workload once and
 * reuse the traces across repetitions and experiments.  That hoist is
 * only sound if (a) materializing a spec is deterministic, and (b) the
 * shared LlcTraceCache returns the same filtered traces an unshared
 * run would build.  A golden FNV-1a digest over every record of every
 * workload pins the suite contents so an accidental generator change
 * (which would silently shift every result table) fails loudly here.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "core/vectors.hh"
#include "sim/fastpath/hierarchy.hh"
#include "sim/multicore/engine.hh"
#include "sim/policy_zoo.hh"
#include "sim/system.hh"
#include "util/parallel.hh"

namespace gippr
{
namespace
{

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

uint64_t
foldDouble(uint64_t h, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return foldU64(h, bits);
}

/** Digest of one materialized workload (weights and every record). */
uint64_t
digestOf(const Workload &w, uint64_t h)
{
    for (const Simpoint &sp : w.simpoints()) {
        h = foldDouble(h, sp.weight);
        h = foldU64(h, sp.trace->size());
        for (const MemRecord &rec : sp.trace->records()) {
            h = foldU64(h, rec.instGap);
            h = foldU64(h, rec.addr);
            h = foldU64(h, static_cast<uint64_t>(rec.type));
            h = foldU64(h, rec.type != AccessType::Load ? 1 : 0);
        }
    }
    return h;
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

uint64_t
suiteDigest(const SuiteParams &params)
{
    SyntheticSuite suite(params);
    uint64_t h = kFnvOffset;
    for (const WorkloadSpec &spec : suite.specs()) {
        h = fnv1a(h, spec.name.data(), spec.name.size());
        h = digestOf(SyntheticSuite::materialize(spec), h);
    }
    return h;
}

/** Every suite, KV and phase-shift member at @p params. */
std::vector<WorkloadSpec>
allMembers(const SuiteParams &params)
{
    std::vector<WorkloadSpec> specs = SyntheticSuite(params).specs();
    for (std::vector<WorkloadSpec> family :
         {kvCacheFamily(params), phaseShiftFamily(params)})
        for (WorkloadSpec &spec : family)
            specs.push_back(std::move(spec));
    return specs;
}

HierarchyConfig
tinyHier()
{
    HierarchyConfig hier;
    hier.l1 = {"L1", 4 * 1024, 8, 64};
    hier.l2 = {"L2", 8 * 1024, 8, 64};
    hier.llc = {"LLC", 32 * 1024, 16, 64};
    return hier;
}

uint64_t
foldStats(uint64_t h, const CacheStats &s)
{
    for (uint64_t v : {s.accesses, s.hits, s.misses, s.evictions,
                       s.writebacks, s.bypasses, s.demandAccesses,
                       s.demandMisses})
        h = foldU64(h, v);
    return h;
}

uint64_t
foldBank(uint64_t h, const fastpath::CounterBank &b)
{
    for (uint64_t v : {b.accesses, b.hits, b.misses, b.evictions,
                       b.writebacks, b.demandAccesses, b.demandMisses})
        h = foldU64(h, v);
    return h;
}

uint64_t
foldReplay(uint64_t h, const fastpath::ReplayStats &s)
{
    h = foldBank(h, s.measured);
    h = foldBank(h, s.total);
    h = foldU64(h, s.finalWinner);
    h = foldU64(h, s.duelCounters.size());
    for (uint64_t v : s.duelCounters)
        h = foldU64(h, v);
    h = foldU64(h, s.leaderMisses.size());
    for (uint64_t v : s.leaderMisses)
        h = foldU64(h, v);
    return h;
}

/** Digest of a whole shared-LLC run: every core's shared and solo
 *  statistics (duel state included), the summed banks, the final way
 *  split and the repartition count. */
uint64_t
foldRun(uint64_t h, const multicore::RunResult &r)
{
    for (const multicore::CoreResult &c : r.cores) {
        h = foldReplay(h, c.stats);
        h = foldReplay(h, c.solo);
    }
    h = foldBank(h, r.measured);
    h = foldBank(h, r.total);
    h = foldU64(h, r.wayCounts.size());
    for (unsigned w : r.wayCounts)
        h = foldU64(h, w);
    return foldU64(h, r.repartitions);
}

/**
 * Expect @p entries to be what materializing @p spec, filtering it
 * through @p hier and stripping writebacks gives; returns the number
 * of simpoints compared.
 */
size_t
expectTwoStepEntries(const WorkloadSpec &spec, const HierarchyConfig &hier,
                     const LlcTraceCache::Entries &entries)
{
    const Workload w = SyntheticSuite::materialize(spec);
    EXPECT_EQ(entries.size(), w.simpoints().size()) << spec.name;
    const size_t n = std::min(entries.size(), w.simpoints().size());
    for (size_t s = 0; s < n; ++s) {
        const Simpoint &sp = w.simpoints()[s];
        const LlcTraceCache::Entry &e = entries[s];
        const Trace two_step =
            demandOnlyTrace(Hierarchy::filterToLlc(*sp.trace, hier));
        EXPECT_EQ(e.demandTrace->records(), two_step.records())
            << spec.name << '/' << s;
        EXPECT_EQ(e.demandTrace->instructions(), two_step.instructions());
        EXPECT_EQ(e.instructions, sp.trace->instructions());
        EXPECT_EQ(e.weight, sp.weight);
    }
    return n;
}

/**
 * Run @p body, aborting the test binary with a message if it has not
 * returned within a minute (a pipeline stage left waiting on the
 * other would otherwise hang until the ctest timeout).
 */
template <typename Body>
void
withinAMinute(const char *what, Body body)
{
    std::promise<void> done;
    std::future<void> finished = done.get_future();
    std::thread watchdog([&finished, what] {
        if (finished.wait_for(std::chrono::minutes(1)) ==
            std::future_status::timeout) {
            std::fprintf(stderr, "%s did not return within a minute\n",
                         what);
            std::abort();
        }
    });
    body();
    done.set_value();
    watchdog.join();
}

/**
 * A CPU stream over a small loop that throws std::runtime_error at
 * reference @p throwAt, standing in for a generator that fails.
 */
class ThrowingGenerator : public AccessGenerator
{
  public:
    explicit ThrowingGenerator(uint64_t throwAt) : throwAt_(throwAt) {}

    MemRecord
    next(Rng &) override
    {
        const uint64_t i = emitted_++;
        if (i == throwAt_)
            throw std::runtime_error("generator failed at reference " +
                                     std::to_string(i));
        return makeRecord(i % 4096, 3, i % 5 == 0);
    }
    std::string name() const override { return "throwing"; }

  private:
    uint64_t throwAt_;
    uint64_t emitted_ = 0;
};

/**
 * A spec of @p simpoints simpoints of @p accesses references each;
 * simpoint @p failing comes from @p make, the rest from the
 * suite's zipf_hot recipe.
 */
WorkloadSpec
specWithFailingSimpoint(
    size_t simpoints, uint64_t accesses, size_t failing,
    std::function<std::unique_ptr<AccessGenerator>()> make)
{
    const SyntheticSuite suite(pinnedParams());
    WorkloadSpec spec;
    spec.name = "failing";
    spec.capacityBlocks = 256;
    for (size_t i = 0; i < simpoints; ++i) {
        SimpointSpec sp = suite.spec("zipf_hot").simpoints.front();
        sp.accesses = accesses;
        sp.seed += i;
        if (i == failing)
            sp.make = make;
        spec.simpoints.push_back(sp);
    }
    return spec;
}

/**
 * Expect @p cache.get(@p bad) to throw without publishing anything or
 * recording a phase, twice, and the same cache then to build a good
 * spec.
 */
void
expectFailedBuildPublishesNothing(LlcTraceCache &cache,
                                  const WorkloadSpec &bad,
                                  const char *message)
{
    telemetry::PhaseTimings timings;
    const uint64_t misses = cache.misses();
    withinAMinute("a failing build", [&] {
        for (int attempt = 0; attempt < 2; ++attempt) {
            try {
                cache.get(bad, tinyHier(), &timings);
                ADD_FAILURE() << "get() returned for a failing build";
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find(message),
                          std::string::npos)
                    << e.what();
            }
        }
    });
    // Nothing published: the second attempt missed and rebuilt.
    EXPECT_EQ(cache.misses(), misses + 2);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_TRUE(timings.phases().empty());

    SuiteParams params = pinnedParams();
    params.accessesPerSimpoint = 12000;
    const WorkloadSpec good = SyntheticSuite(params).spec("zipf_hot");
    std::shared_ptr<const LlcTraceCache::Entries> entries;
    withinAMinute("a good build after a failed one",
                  [&] { entries = cache.get(good, tinyHier(), &timings); });
    expectTwoStepEntries(good, tinyHier(), *entries);
}

} // namespace

TEST(SuiteDigest, MaterializationIsDeterministic)
{
    const SyntheticSuite suite(pinnedParams());
    const WorkloadSpec &spec = suite.spec("zipf_twophase");
    const uint64_t once =
        digestOf(SyntheticSuite::materialize(spec), kFnvOffset);
    const uint64_t again =
        digestOf(SyntheticSuite::materialize(spec), kFnvOffset);
    EXPECT_EQ(once, again);
}

TEST(SuiteDigest, GoldenDigestPinned)
{
    // Golden value computed from the suite at the pinned params above.
    // If a generator change is INTENTIONAL, rerun this test and update
    // the constant; an unexpected mismatch means every published table
    // silently changed.
    constexpr uint64_t kGolden = 0x5d276d5c7b893d65ull;
    EXPECT_EQ(suiteDigest(pinnedParams()), kGolden);
}

TEST(SuiteDigest, LongStreamDigestPinned)
{
    // Every suite, KV and phase-shift member at 20000 references.
    // SdProfileGenerator once kept its last-emission indices in a
    // hash map pruned above four times its history ring; 2000
    // references never reach that point, 20000 do for sd_lrufriendly
    // (first at ~2.2k references), sd_midrange, sd_uniform,
    // sd_bimodal and sd_nearcap.  The value was recorded with that
    // pruned map, so it pins that the block-indexed table emits the
    // same references.
    SuiteParams params = pinnedParams();
    params.accessesPerSimpoint = 20000;
    uint64_t h = kFnvOffset;
    for (const WorkloadSpec &spec : allMembers(params)) {
        h = fnv1a(h, spec.name.data(), spec.name.size());
        h = digestOf(SyntheticSuite::materialize(spec), h);
    }
    constexpr uint64_t kGolden = 0x604036a0967c7d09ull;
    EXPECT_EQ(h, kGolden) << std::hex << h;
}

TEST(SuiteDigest, FilteredLlcStreamPinned)
{
    // Golden digest of every record the L1/L2 filter emits (demands
    // and writebacks, in stream order) over the pinned suite.
    // Any change to the L1/L2 cascade or its writeback order moves it.
    const SyntheticSuite suite(pinnedParams());
    uint64_t h = kFnvOffset;
    for (const WorkloadSpec &spec : suite.specs()) {
        const Workload w = SyntheticSuite::materialize(spec);
        for (const Simpoint &sp : w.simpoints()) {
            const Trace llc = Hierarchy::filterToLlc(*sp.trace, tinyHier());
            h = foldU64(h, llc.size());
            for (const MemRecord &rec : llc.records()) {
                h = foldU64(h, rec.instGap);
                h = foldU64(h, rec.addr);
                h = foldU64(h, static_cast<uint64_t>(rec.type));
                h = foldU64(h, rec.type != AccessType::Load ? 1 : 0);
            }
        }
    }
    constexpr uint64_t kGolden = 0x063256ef4e58152dull;
    EXPECT_EQ(h, kGolden) << std::hex << h;
}

TEST(SuiteDigest, FullSystemResultsPinned)
{
    // Golden digest of the whole-system results (Fig. 13's inputs):
    // simulateWorkload's combined IPC, cycles, instructions and LLC
    // misses, plus every LLC statistic of each simpoint's
    // simulateTrace (the digest predates simulateWorkload's summed
    // llcStats, so it folds the per-simpoint stats, not the sum).
    const SyntheticSuite suite(pinnedParams());
    SystemParams params;
    params.hier = tinyHier();
    uint64_t h = kFnvOffset;
    for (const char *name : {"loop_thrash", "zipf_hot", "hotcold_scan"}) {
        const Workload w = SyntheticSuite::materialize(suite.spec(name));
        for (const char *policy : {"LRU", "DRRIP", "PDP", "DGIPPR4"}) {
            const PolicyFactory make = policyByName(policy).make;
            const SimResult r = simulateWorkload(w, make, params);
            h = foldDouble(h, r.ipc);
            h = foldDouble(h, r.cycles);
            h = foldU64(h, r.instructions);
            h = foldU64(h, r.llcMisses);
            h = foldDouble(h, r.llcMpki);
            for (const Simpoint &sp : w.simpoints()) {
                const SimResult s = simulateTrace(*sp.trace, make, params);
                h = foldDouble(h, s.ipc);
                h = foldDouble(h, s.cycles);
                h = foldStats(h, s.llcStats);
            }
        }
    }
    constexpr uint64_t kGolden = 0x63d26cd4638721ddull;
    EXPECT_EQ(h, kGolden) << std::hex << h;
}

TEST(SuiteDigest, MissExperimentRowsPinned)
{
    // Golden digest of runMissExperiment's rows (Figs. 10/11): packed
    // replays (LRU, 2-DGIPPR), scalar policies (DRRIP, PDP, B-GIPPR)
    // and Belady MIN, every column of every workload bit for bit.
    const SyntheticSuite suite(pinnedParams());
    ExperimentConfig cfg;
    cfg.system.hier = tinyHier();
    cfg.threads = 4;
    cfg.includeMin = true;
    std::vector<PolicyDef> policies;
    for (const char *name : {"LRU", "DGIPPR2", "DRRIP", "PDP", "BGIPPR"})
        policies.push_back(policyByName(name));
    const ExperimentResult r = runMissExperiment(suite, policies, cfg);

    uint64_t h = kFnvOffset;
    for (const std::string &c : r.columns)
        h = fnv1a(h, c.data(), c.size());
    for (const WorkloadRow &row : r.rows) {
        h = fnv1a(h, row.workload.data(), row.workload.size());
        for (double v : row.values)
            h = foldDouble(h, v);
    }
    constexpr uint64_t kGolden = 0xc57cef467bdd1522ull;
    EXPECT_EQ(h, kGolden) << std::hex << h;
}

TEST(SuiteDigest, TraceCacheMemoizesEntries)
{
    const SyntheticSuite suite(pinnedParams());
    const HierarchyConfig hier = tinyHier();
    LlcTraceCache cache;
    const auto first = cache.get(suite.spec("loop_fit"), hier, nullptr);
    const auto second = cache.get(suite.spec("loop_fit"), hier, nullptr);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    ASSERT_FALSE(first->empty());
    for (const LlcTraceCache::Entry &entry : *first) {
        EXPECT_GT(entry.instructions, 0u);
        EXPECT_GT(entry.weight, 0.0);
    }
}

TEST(SuiteDigest, TraceCacheKeysOnCapacityAndGeometry)
{
    SuiteParams small = pinnedParams();
    SuiteParams big = pinnedParams();
    big.llcBlocks = 512; // same seeds, differently scaled generators
    const SyntheticSuite a(small);
    const SyntheticSuite b(big);
    const HierarchyConfig hier = tinyHier();
    LlcTraceCache cache;
    const auto ea = cache.get(a.spec("stream_pure"), hier, nullptr);
    const auto eb = cache.get(b.spec("stream_pure"), hier, nullptr);
    EXPECT_NE(ea.get(), eb.get());
    EXPECT_EQ(cache.misses(), 2u);

    // Same spec through a different L2 is a distinct entry too.
    HierarchyConfig wider = hier;
    wider.l2.sizeBytes = 16 * 1024;
    const auto ec = cache.get(a.spec("stream_pure"), wider, nullptr);
    EXPECT_NE(ea.get(), ec.get());
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.hits(), 0u);

    // The build never reads the LLC, so another LLC size or
    // associativity is a hit on the same entry, equal to a fresh build.
    HierarchyConfig bigger_llc = hier;
    bigger_llc.llc.sizeBytes = 64 * 1024;
    HierarchyConfig wider_llc = hier;
    wider_llc.llc.assoc = 8;
    for (const HierarchyConfig &llc : {bigger_llc, wider_llc}) {
        const auto ed = cache.get(a.spec("stream_pure"), llc, nullptr);
        EXPECT_EQ(ea.get(), ed.get());
        LlcTraceCache fresh;
        const auto ef = fresh.get(a.spec("stream_pure"), llc, nullptr);
        ASSERT_EQ(ef->size(), ed->size());
        for (size_t i = 0; i < ef->size(); ++i) {
            EXPECT_EQ((*ef)[i].demandTrace->records(),
                      (*ed)[i].demandTrace->records());
            EXPECT_EQ((*ef)[i].instructions, (*ed)[i].instructions);
            EXPECT_EQ((*ef)[i].weight, (*ed)[i].weight);
        }
    }
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(SuiteDigest, SharedCacheLeavesExperimentRowsUnchanged)
{
    SuiteParams sp = pinnedParams();
    sp.accessesPerSimpoint = 6000;
    const SyntheticSuite suite(sp);

    ExperimentConfig cfg;
    cfg.system.hier = tinyHier();
    cfg.threads = 4;
    const std::vector<PolicyDef> policies = {policyByName("LRU"),
                                             policyByName("DGIPPR2")};

    const ExperimentResult plain =
        runMissExperiment(suite, policies, cfg);

    LlcTraceCache shared;
    cfg.traceCache = &shared;
    const ExperimentResult cached =
        runMissExperiment(suite, policies, cfg);
    EXPECT_GT(shared.misses(), 0u);

    ASSERT_EQ(plain.rows.size(), cached.rows.size());
    EXPECT_EQ(plain.columns, cached.columns);
    for (size_t i = 0; i < plain.rows.size(); ++i) {
        EXPECT_EQ(plain.rows[i].workload, cached.rows[i].workload);
        EXPECT_EQ(plain.rows[i].values, cached.rows[i].values);
    }

    // A second experiment through the same cache is all hits.
    const uint64_t misses_before = shared.misses();
    const ExperimentResult again =
        runMissExperiment(suite, policies, cfg);
    EXPECT_EQ(shared.misses(), misses_before);
    EXPECT_GT(shared.hits(), 0u);
    for (size_t i = 0; i < plain.rows.size(); ++i)
        EXPECT_EQ(plain.rows[i].values, again.rows[i].values);
}

TEST(SuiteDigest, StreamedTraceCacheMatchesTwoStepFilter)
{
    // LlcTraceCache streams each simpoint's generator through the
    // L1/L2 in 2048-record chunks, generated on a helper thread; its
    // entries must be what materializing, then filtering, then
    // stripping writebacks gives.  The simpoint lengths straddle the
    // chunk size: one record, one short of a chunk, exactly one, one
    // over, three whole chunks, and several chunks with a partial last
    // one.  The generators keep their 8000-reference shapes.  The
    // entries are fetched on two threads so sanitizer builds see the
    // streamed path run concurrently.
    SuiteParams small = pinnedParams();
    small.accessesPerSimpoint = 8000;
    SuiteParams paper = small;
    paper.llcBlocks = 4096; // working sets that spill the paper L2
    const std::vector<std::pair<SuiteParams, HierarchyConfig>> cases = {
        {small, tinyHier()}, {paper, HierarchyConfig{}}};
    for (uint64_t length : {1, 2047, 2048, 2049, 6144, 8000}) {
        for (const auto &[params, hier] : cases) {
            std::vector<WorkloadSpec> specs = allMembers(params);
            for (WorkloadSpec &spec : specs)
                for (SimpointSpec &sp : spec.simpoints)
                    sp.accesses = length;
            LlcTraceCache cache;
            telemetry::PhaseTimings timings;
            std::vector<std::shared_ptr<const LlcTraceCache::Entries>> got(
                specs.size());
            parallelFor(specs.size(), 2, [&](size_t i) {
                got[i] = cache.get(specs[i], hier, &timings);
            });

            size_t simpoints = 0;
            for (size_t i = 0; i < specs.size(); ++i) {
                SCOPED_TRACE(length);
                simpoints += expectTwoStepEntries(specs[i], hier, *got[i]);
            }
            // One "materialize" per build and one "llc_filter" per
            // simpoint, as when the build materialized first.
            std::map<std::string, uint64_t> counts;
            for (const telemetry::PhaseStat &p : timings.phases())
                counts[p.name] = p.count;
            EXPECT_EQ(counts["materialize"], specs.size());
            EXPECT_EQ(counts["llc_filter"], simpoints);
        }
    }
}

/**
 * A CPU stream of @p warmup unit-gap references to one block, then L1
 * hits with maximal gaps, then one cold block.
 */
class MaxGapGenerator : public AccessGenerator
{
  public:
    explicit MaxGapGenerator(uint64_t warmup = 0) : warmup_(warmup) {}

    MemRecord
    next(Rng &) override
    {
        const uint64_t i = emitted_++;
        if (i < warmup_)
            return makeRecord(1, 1, false);
        const bool cold = i - warmup_ == 3;
        return makeRecord(cold ? 2 : 1, cold ? 1 : 0xFFFFFFFFu, false);
    }
    std::string name() const override { return "max_gap"; }

  private:
    uint64_t warmup_;
    uint64_t emitted_ = 0;
};

TEST(SuiteDigest, StreamedTraceCacheGapOverflowIsFatal)
{
    // Two L1 hits of 2^32 - 1 instructions each leave a gap that the
    // cold block's record cannot carry.  Both builds must refuse it.
    // Earlier builds in this process leave parked generator helpers,
    // so the death tests re-execute the binary instead of forking it.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    WorkloadSpec spec;
    spec.name = "max_gap";
    spec.capacityBlocks = 256;
    SimpointSpec sp;
    sp.make = [] { return std::make_unique<MaxGapGenerator>(); };
    sp.accesses = 6;
    spec.simpoints.push_back(sp);
    const char *message =
        "instruction gap 8589934591 at CPU record 3 overflows";
    EXPECT_DEATH(([&]() noexcept {
                     const Workload w = SyntheticSuite::materialize(spec);
                     demandOnlyTrace(Hierarchy::filterToLlc(
                         *w.simpoints()[0].trace, tinyHier()));
                 })(),
                 message);
    EXPECT_DEATH(([&]() noexcept {
                     LlcTraceCache cache;
                     cache.get(spec, tinyHier(), nullptr);
                 })(),
                 message);

    // Without the cold block the gap is never recorded, and both
    // builds accept the stream.
    sp.accesses = 3;
    spec.simpoints = {sp};
    const Workload w = SyntheticSuite::materialize(spec);
    const Trace two_step = demandOnlyTrace(
        Hierarchy::filterToLlc(*w.simpoints()[0].trace, tinyHier()));
    LlcTraceCache cache;
    const auto entries = cache.get(spec, tinyHier(), nullptr);
    EXPECT_EQ(entries->front().demandTrace->records(), two_step.records());
    EXPECT_EQ(two_step.size(), 1u);
}

TEST(SuiteDigest, StreamedBuildCascadeFailurePublishesNothing)
{
    // The recorder's gap overflow throws on the calling thread's
    // cascade while the generator thread is chunks ahead (or done): it
    // must stop, the exception must reach the caller, and the cache
    // must stay usable.  Overflows land in the first chunk, mid-ring
    // and in the second simpoint.
    for (uint64_t warmup : {0u, 5u * 2048u + 100u}) {
        for (size_t failing : {0u, 1u}) {
            SCOPED_TRACE(testing::Message()
                         << "warmup " << warmup << ", simpoint " << failing);
            const WorkloadSpec bad = specWithFailingSimpoint(
                2, 40000, failing,
                [warmup] {
                    return std::make_unique<MaxGapGenerator>(warmup);
                });
            LlcTraceCache cache;
            expectFailedBuildPublishesNothing(
                cache, bad, "overflows the 32-bit MemRecord::instGap");
        }
    }
}

TEST(SuiteDigest, StreamedBuildGeneratorFailurePublishesNothing)
{
    // A generator that throws on the helper thread, before its first
    // chunk or several chunks in, and in the first or the second
    // simpoint: the cascade waiting on it must wake, the helper must
    // be joined, the exception must reach the caller, and the cache
    // must stay usable.
    for (uint64_t throw_at : {0u, 3u * 2048u + 5u, 9u * 2048u}) {
        for (size_t failing : {0u, 1u}) {
            SCOPED_TRACE(testing::Message() << "throw at " << throw_at
                                            << ", simpoint " << failing);
            const WorkloadSpec bad = specWithFailingSimpoint(
                2, 40000, failing, [throw_at] {
                    return std::make_unique<ThrowingGenerator>(throw_at);
                });
            LlcTraceCache cache;
            expectFailedBuildPublishesNothing(cache, bad,
                                              "generator failed at reference");
        }
    }
}

TEST(SuiteDigest, SharedLlcRunsPinned)
{
    // Golden digest of whole shared-LLC runs over a 4-core mix at a
    // 64-set, 16-way LLC: per-core duels with utility repartitioning,
    // one global duel with a static split, and unpartitioned LRU.
    // Both backends must land on the same value.
    SuiteParams sp = pinnedParams();
    sp.llcBlocks = 1024;
    sp.accessesPerSimpoint = 20000;
    const SyntheticSuite suite(sp);
    const std::vector<multicore::CoreStream> streams =
        multicore::buildCoreStreams(multicore::parseMixSpec("balanced", 4),
                                    suite, tinyHier(), nullptr);

    multicore::RunParams base;
    base.llc = {"LLC", 64 * 1024, 16, 64};
    std::vector<multicore::RunParams> configs(3, base);
    configs[0].policy = fastpath::dgipprSpec(local_vectors::dgippr4());
    configs[0].duelScope = multicore::DuelScope::PerCore;
    configs[0].schedule = multicore::Schedule::Weighted;
    configs[0].partition.mode = multicore::PartitionMode::Utility;
    configs[0].partition.repartitionEvery = 4096;
    configs[0].partition.sampleEvery = 4;
    configs[1].policy = fastpath::dgipprSpec(local_vectors::dgippr2());
    configs[1].partition.mode = multicore::PartitionMode::Static;
    configs[1].partition.staticWays = {6, 4, 3, 3};
    configs[2].policy = fastpath::lruSpec();

    for (multicore::Backend backend :
         {multicore::Backend::Fast, multicore::Backend::Scalar}) {
        uint64_t h = kFnvOffset;
        for (multicore::RunParams params : configs) {
            params.backend = backend;
            h = foldRun(h, multicore::runSharedLlc(streams, params));
        }
        constexpr uint64_t kGolden = 0x18a3123a07f1327bull;
        EXPECT_EQ(h, kGolden)
            << multicore::backendName(backend) << ' ' << std::hex << h;
    }
}

} // namespace gippr
