/**
 * @file
 * Differential equivalence tests for the fast replay backend.
 *
 * Three layers, from primitive to end-to-end:
 *
 *  1. The packed single-word PLRU kernels are checked exhaustively
 *     against PlruTree over every internal-node state.
 *  2. FastpathOracle replays the scalar simulator and the SoA model
 *     in lock-step over randomized streams (at 16 and 8 ways, the
 *     two SSE row widths) and workload-suite streams,
 *     comparing every access's outcome (hit, way, victim, dirtiness)
 *     and, periodically, the full per-set recency state and duel
 *     winner.  The first divergence is dumped with both models' set
 *     state.
 *  3. The engines themselves (scalar, fast x1 shard, fast x4 shards)
 *     must return identical ReplayStats — measured and total banks,
 *     duel counters, leader misses — for every core policy on suite
 *     workloads.
 *
 * Scale knobs (the CI equivalence job turns both up):
 *   GIPPR_FASTPATH_EQUIV_ACCESSES  lock-step stream length per policy
 *                                  (default 200000)
 *   GIPPR_FASTPATH_EQUIV_FULL=1    sweep all suite workloads in the
 *                                  engine-equality test (default: a
 *                                  representative archetype subset)
 */

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/plru_tree.hh"
#include "core/vectors.hh"
#include "sim/fastpath/engine.hh"
#include "sim/fastpath/hierarchy.hh"
#include "sim/fastpath/scalar_model.hh"
#include "sim/fastpath/soa_cache.hh"
#include "trace/trace.hh"
#include "util/rng.hh"
#include "verify/fastpath_oracle.hh"
#include "workloads/suite.hh"

namespace gippr
{
namespace
{

uint64_t
equivAccesses()
{
    const char *env = std::getenv("GIPPR_FASTPATH_EQUIV_ACCESSES");
    return env ? std::strtoull(env, nullptr, 10) : 200'000;
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

/** smallLlc's 64 sets at 8 ways, the paper L1D/L2 associativity. */
CacheConfig
smallLlc8()
{
    CacheConfig cfg = smallLlc();
    cfg.sizeBytes = 32 * 1024;
    cfg.assoc = 8;
    return cfg;
}

/** One 16-way set: a fully associative cache. */
CacheConfig
oneSetLlc()
{
    CacheConfig cfg = smallLlc();
    cfg.sizeBytes = 16 * 64;
    return cfg;
}

/**
 * The RRIP family and PDP, whose specs do not depend on the
 * associativity: SRRIP, BRRIP, DRRIP, an RRIP-IPV vector that
 * promotes one level per hit, PDP, and PDP with a short epoch so the
 * solver re-derives dp (and the protection it hands out) within a
 * test-sized stream.
 */
std::vector<fastpath::ReplaySpec>
rripPdpSpecs()
{
    PdpParams short_epoch;
    short_epoch.epochAccesses = 2048;
    short_epoch.counterBits = 3;
    return {fastpath::rripSpec(RripPolicy::Mode::Static),
            fastpath::rripSpec(RripPolicy::Mode::Bimodal, 2, 32, 32, 7),
            fastpath::rripSpec(RripPolicy::Mode::Dynamic),
            fastpath::rripIpvSpec(Ipv({0, 0, 1, 2, 2})),
            fastpath::pdpSpec(),
            fastpath::pdpSpec(short_epoch)};
}

/** The policies the fast path covers, at 16 ways. */
std::vector<fastpath::ReplaySpec>
coreSpecs()
{
    std::vector<fastpath::ReplaySpec> specs = {
        fastpath::lruSpec(),
        fastpath::lipSpec(),
        fastpath::giplrSpec(local_vectors::giplr()),
        fastpath::plruSpec(),
        fastpath::gipprSpec(local_vectors::gippr()),
        fastpath::dgipprSpec(local_vectors::dgippr2()),
        fastpath::dgipprSpec(local_vectors::dgippr4())};
    for (fastpath::ReplaySpec &spec : rripPdpSpecs())
        specs.push_back(std::move(spec));
    return specs;
}

/** The same policies at 8 ways, with 8-way vectors. */
std::vector<fastpath::ReplaySpec>
coreSpecs8()
{
    const Ipv a({0, 0, 1, 0, 3, 0, 1, 2, 5});
    const Ipv b({0, 1, 0, 2, 1, 4, 3, 6, 7});
    std::vector<fastpath::ReplaySpec> specs = {
        fastpath::lruSpec(),
        fastpath::lipSpec(),
        fastpath::giplrSpec(a),
        fastpath::plruSpec(),
        fastpath::gipprSpec(b),
        fastpath::dgipprSpec({Ipv::lru(8), Ipv::lruInsertion(8)}),
        fastpath::dgipprSpec({Ipv::lru(8), Ipv::lruInsertion(8), a, b})};
    for (fastpath::ReplaySpec &spec : rripPdpSpecs())
        specs.push_back(std::move(spec));
    return specs;
}

/** The RRIP specs that never duel (SRRIP, BRRIP, RRIP-IPV), so they
 *  run on a one-set cache. */
std::vector<fastpath::ReplaySpec>
oneSetSpecs()
{
    return {fastpath::rripSpec(RripPolicy::Mode::Static),
            fastpath::rripSpec(RripPolicy::Mode::Bimodal, 2, 32, 32, 7),
            fastpath::rripIpvSpec(Ipv({0, 0, 1, 2, 2}))};
}

/**
 * Mixed-phase randomized stream: a hot working set (hits), streaming
 * sweeps (evictions), and occasional writebacks (pc == 0 stores), so
 * every transition in the access path is exercised.
 */
Trace
randomStream(uint64_t n, uint64_t seed, const CacheConfig &cfg)
{
    Rng rng(seed);
    Trace trace;
    trace.reserve(n);
    const uint64_t block = cfg.blockBytes;
    const uint64_t hot_blocks = cfg.sets() * cfg.assoc / 2;
    const uint64_t cold_blocks = cfg.sets() * cfg.assoc * 8;
    uint64_t stream_pos = 0;
    for (uint64_t i = 0; i < n; ++i) {
        MemRecord rec;
        rec.instGap = 1 + static_cast<uint32_t>(rng.nextBounded(4));
        const double r = rng.nextDouble();
        if (r < 0.45) {
            rec.addr = rng.nextBounded(hot_blocks) * block;
        } else if (r < 0.85) {
            rec.addr = (hot_blocks + stream_pos++ % cold_blocks) * block;
        } else {
            rec.addr = rng.nextBounded(cold_blocks) * block;
        }
        rec.addr += rng.nextBounded(block); // sub-block offsets
        if (rng.nextBool(0.08)) {
            rec.isWrite = true; // writeback convention: store, pc 0
            rec.pc = 0;
        } else {
            rec.isWrite = rng.nextBool(0.3);
            rec.pc = 0x400000 + rng.nextBounded(512) * 4;
        }
        trace.append(rec);
    }
    return trace;
}

/**
 * Stream whose tags all end in the same byte, so every valid line of
 * a set shares the probe's one-byte signature and the signature scan
 * must verify each candidate against the full tag.  Three times as
 * many tags as ways per set give hits, misses and evictions alike.
 */
Trace
signatureCollisionStream(uint64_t n, uint64_t seed, const CacheConfig &cfg)
{
    Rng rng(seed);
    const AddressDecode decode(cfg);
    Trace trace;
    trace.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        const uint64_t set = rng.nextBounded(cfg.sets());
        const uint64_t tag = (rng.nextBounded(3 * cfg.assoc) << 8) | 0xa5;
        MemRecord rec;
        rec.instGap = 1;
        rec.addr = decode.blockOf(set, tag) << decode.blockShift;
        if (rng.nextBool(0.08)) {
            rec.isWrite = true; // writeback convention: store, pc 0
            rec.pc = 0;
        } else {
            rec.isWrite = rng.nextBool(0.3);
            rec.pc = 0x400000;
        }
        trace.append(rec);
    }
    return trace;
}

uint64_t
treeWord(const PlruTree &tree)
{
    uint64_t word = 0;
    for (unsigned b = 0; b < tree.numBits(); ++b)
        word |= uint64_t{tree.bit(b)} << b;
    return word;
}

PlruTree
treeFromWord(unsigned ways, uint64_t word)
{
    PlruTree tree(ways);
    for (unsigned b = 0; b < ways - 1; ++b)
        tree.setBit(b, (word >> b) & 1);
    return tree;
}

} // namespace

TEST(FastpathKernels, MatchPlruTreeExhaustively)
{
    for (unsigned ways : {2u, 4u, 8u}) {
        const uint64_t states = uint64_t{1} << (ways - 1);
        for (uint64_t word = 0; word < states; ++word) {
            PlruTree tree = treeFromWord(ways, word);
            ASSERT_EQ(fastpath::packedFindPlru(word, ways),
                      tree.findPlru())
                << "ways " << ways << " word " << word;
            for (unsigned w = 0; w < ways; ++w) {
                ASSERT_EQ(fastpath::packedPosition(word, ways, w),
                          tree.position(w))
                    << "ways " << ways << " word " << word << " way "
                    << w;
                PlruTree promoted = treeFromWord(ways, word);
                promoted.promoteMru(w);
                ASSERT_EQ(fastpath::packedPromoteMru(word, ways, w),
                          treeWord(promoted));
                for (unsigned x = 0; x < ways; ++x) {
                    PlruTree moved = treeFromWord(ways, word);
                    moved.setPosition(w, x);
                    ASSERT_EQ(
                        fastpath::packedSetPosition(word, ways, w, x),
                        treeWord(moved))
                        << "ways " << ways << " word " << word << " way "
                        << w << " pos " << x;
                }
            }
        }
    }
}

TEST(FastpathKernels, MatchPlruTreeAt16Ways)
{
    const unsigned ways = 16;
    const uint64_t states = uint64_t{1} << (ways - 1);
    // findPlru/position over every state; the write kernels over a
    // deterministic sample (full coverage lives in the <= 8-way sweep,
    // which exercises every tree level shape).
    for (uint64_t word = 0; word < states; ++word) {
        PlruTree tree = treeFromWord(ways, word);
        ASSERT_EQ(fastpath::packedFindPlru(word, ways), tree.findPlru());
        for (unsigned w = 0; w < ways; ++w)
            ASSERT_EQ(fastpath::packedPosition(word, ways, w),
                      tree.position(w));
    }
    Rng rng(0xfa57);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t word = rng.nextBounded(states);
        const unsigned w = static_cast<unsigned>(rng.nextBounded(ways));
        const unsigned x = static_cast<unsigned>(rng.nextBounded(ways));
        PlruTree promoted = treeFromWord(ways, word);
        promoted.promoteMru(w);
        ASSERT_EQ(fastpath::packedPromoteMru(word, ways, w),
                  treeWord(promoted));
        PlruTree moved = treeFromWord(ways, word);
        moved.setPosition(w, x);
        ASSERT_EQ(fastpath::packedSetPosition(word, ways, w, x),
                  treeWord(moved));
    }
}

TEST(FastpathEquiv, ScalarPolicyNamesMatchSpecNames)
{
    const CacheConfig cfg = smallLlc();
    for (const fastpath::ReplaySpec &spec : coreSpecs()) {
        // LIP has no dedicated scalar class: it is realized as GIPLR
        // with the LRU-insertion vector (paper Section 2).
        const std::string want =
            spec.kind == fastpath::FastPolicyKind::Lip ? "GIPLR"
                                                       : spec.name();
        EXPECT_EQ(fastpath::makeScalarPolicy(spec, cfg)->name(), want);
    }
}

TEST(FastpathEquiv, RripPselWidthIsFixed)
{
    // counterBits is a Dgippr setting: RripPolicy's PSEL is always 11
    // bits, so an RRIP spec asking for another width is refused.
    const CacheConfig cfg = smallLlc();
    fastpath::ReplaySpec spec = fastpath::rripSpec(RripPolicy::Mode::Dynamic);
    EXPECT_TRUE(fastpath::SoaCacheModel::supports(spec, cfg));
    spec.counterBits = 9;
    EXPECT_FALSE(fastpath::SoaCacheModel::supports(spec, cfg));
    EXPECT_DEATH(([&]() noexcept { fastpath::makeScalarPolicy(spec, cfg); })(),
                 "RRIP replay spec: the PSEL width is fixed at 11 bits");
}

TEST(FastpathEquiv, DrripNeedsTwoSets)
{
    // SRRIP, BRRIP and RRIP-IPV run on one set (the lock-step loop
    // below); DRRIP's leader sets cannot be placed there.
    const CacheConfig cfg = oneSetLlc();
    const fastpath::ReplaySpec spec =
        fastpath::rripSpec(RripPolicy::Mode::Dynamic);
    EXPECT_FALSE(fastpath::SoaCacheModel::supports(spec, cfg));
    EXPECT_DEATH(([&]() noexcept { fastpath::makeScalarPolicy(spec, cfg); })(),
                 "too many dueling policies");
}

TEST(FastpathEquiv, LockStepOnRandomizedStreams)
{
    // Both row widths the packed model scans in one SSE compare (16
    // ways, and the paper L1D/L2's 8), plus the non-dueling RRIP
    // policies on one fully associative set, each on the mixed stream
    // with writebacks and on one whose signatures always collide; the
    // oracle compares every access, and the line state (positions,
    // RRPVs, PDP protection and reuse bits) plus the duel state on a
    // cadence.
    const uint64_t n = equivAccesses();
    for (const auto &[cfg, specs] :
         {std::pair{smallLlc(), coreSpecs()},
          std::pair{smallLlc8(), coreSpecs8()},
          std::pair{oneSetLlc(), oneSetSpecs()}}) {
        for (const fastpath::ReplaySpec &spec : specs) {
            const std::string geometry =
                spec.name() + "/" + std::to_string(cfg.assoc) + "w" +
                std::to_string(cfg.sets()) + "s";
            verify::FastpathOracle oracle(spec, cfg);
            const Trace trace =
                randomStream(n, 0x1ee7 + spec.ipvs.size(), cfg);
            ASSERT_TRUE(fastpath::SoaCacheModel::supports(spec, cfg))
                << geometry;
            const verify::FastpathResult result =
                oracle.run(trace, "randomized", 997);
            EXPECT_TRUE(result.ok()) << geometry << ": "
                                     << result.toString();
            EXPECT_EQ(result.accesses, n) << geometry;

            verify::FastpathOracle colliding(spec, cfg);
            const Trace same_sig = signatureCollisionStream(
                n / 4, 0x5197 + spec.ipvs.size(), cfg);
            const verify::FastpathResult collided =
                colliding.run(same_sig, "signature-collisions", 997);
            EXPECT_TRUE(collided.ok()) << geometry << ": "
                                       << collided.toString();
            EXPECT_EQ(collided.accesses, n / 4) << geometry;
        }
    }
}

TEST(FastpathEquiv, LockStepOnWorkloadStreams)
{
    // Small suite so materialize+filter stays test-sized; archetypes
    // chosen to cover streaming, thrashing, skew and phase changes.
    SuiteParams params;
    params.llcBlocks = 1024; // 64KB at 64B lines, matching smallLlc
    params.accessesPerSimpoint = 30'000;
    SyntheticSuite suite(params);
    HierarchyConfig hier;
    hier.llc = smallLlc();

    const std::vector<std::string> names = {
        "stream_pure", "loop_thrash", "zipf_hot", "phase_thrashzipf"};
    for (const std::string &name : names) {
        const Workload w = SyntheticSuite::materialize(suite.spec(name));
        for (const fastpath::ReplaySpec &spec : coreSpecs()) {
            verify::FastpathOracle oracle(spec, hier.llc);
            for (const Simpoint &sp : w.simpoints()) {
                const Trace llc = Hierarchy::filterToLlc(*sp.trace, hier);
                verify::FastpathResult result =
                    oracle.run(llc, name, 499);
                EXPECT_TRUE(result.ok())
                    << name << ": " << result.toString();
            }
        }
    }
}

TEST(FastpathEquiv, EnginesAgreeOnSuiteWorkloads)
{
    SuiteParams params;
    params.llcBlocks = 1024;
    params.accessesPerSimpoint = fullSweep() ? 60'000 : 30'000;
    SyntheticSuite suite(params);
    HierarchyConfig hier;
    hier.llc = smallLlc();

    std::vector<std::string> names;
    if (fullSweep()) {
        names = suite.names();
    } else {
        names = {"stream_pure", "loop_fit", "loop_thrash", "zipf_hot",
                 "hotcold_scan", "phase_thrashzipf"};
    }

    const fastpath::ScalarReplayEngine scalar;
    const fastpath::FastReplayEngine fast1(1);
    const fastpath::FastReplayEngine fast4(4);

    for (const std::string &name : names) {
        const Workload w = SyntheticSuite::materialize(suite.spec(name));
        for (const Simpoint &sp : w.simpoints()) {
            const Trace llc = Hierarchy::filterToLlc(*sp.trace, hier);
            const size_t warmup = llc.size() / 3;
            for (const fastpath::ReplaySpec &spec : coreSpecs()) {
                const fastpath::ReplayStats want =
                    scalar.replay(spec, hier.llc, llc, warmup);
                const fastpath::ReplayStats got1 =
                    fast1.replay(spec, hier.llc, llc, warmup);
                const fastpath::ReplayStats got4 =
                    fast4.replay(spec, hier.llc, llc, warmup);
                EXPECT_EQ(want, got1)
                    << name << "/" << spec.name() << " 1-shard:\n"
                    << want.toString() << "\nvs\n" << got1.toString();
                EXPECT_EQ(want, got4)
                    << name << "/" << spec.name() << " 4-shard:\n"
                    << want.toString() << "\nvs\n" << got4.toString();
            }
        }
    }
}

TEST(FastpathEquiv, EnginesAgreeWithFullTraceWarmupEdge)
{
    // warmup == trace.size(): everything is warmup, measured bank
    // empty; warmup == 0: everything measured.
    const CacheConfig cfg = smallLlc();
    const Trace trace = randomStream(20'000, 0xed9e, cfg);
    const fastpath::ScalarReplayEngine scalar;
    const fastpath::FastReplayEngine fast(4);
    for (const fastpath::ReplaySpec &spec : coreSpecs()) {
        for (size_t warmup : {size_t{0}, trace.size()}) {
            const fastpath::ReplayStats want =
                scalar.replay(spec, cfg, trace, warmup);
            const fastpath::ReplayStats got =
                fast.replay(spec, cfg, trace, warmup);
            EXPECT_EQ(want, got)
                << spec.name() << " warmup " << warmup << ":\n"
                << want.toString() << "\nvs\n" << got.toString();
        }
    }
}

TEST(FastpathEquiv, ScalarModelStepsMatchPackedModel)
{
    // The twins' (set, tag) access, access by access, then their
    // stats — both banks across a mid-stream warmup, and duel state.
    const CacheConfig cfg = smallLlc();
    for (const fastpath::ReplaySpec &spec : coreSpecs()) {
        fastpath::SoaCacheModel packed(spec, cfg);
        fastpath::ScalarModel scalar(spec, cfg);
        Rng rng(0x7a1e);
        for (int i = 0; i < 50'000; ++i) {
            if (i == 20'000) {
                packed.markWarmup();
                scalar.markWarmup();
            }
            const uint64_t set = rng.nextBounded(cfg.sets());
            const uint64_t tag = rng.nextBounded(3 * cfg.assoc);
            const uint64_t roll = rng.nextBounded(10);
            const AccessType type = roll < 7   ? AccessType::Load
                                    : roll < 9 ? AccessType::Store
                                               : AccessType::Writeback;
            const fastpath::SoaCacheModel::Step a =
                packed.access(set, tag, type);
            const fastpath::ScalarModel::Step b =
                scalar.access(set, tag, type);
            ASSERT_EQ(a.hit, b.hit) << spec.name() << " access " << i;
            ASSERT_EQ(a.way, b.way) << spec.name() << " access " << i;
            ASSERT_EQ(a.evicted, b.evicted) << spec.name() << " access " << i;
            ASSERT_EQ(a.evictedDirty, b.evictedDirty)
                << spec.name() << " access " << i;
            ASSERT_EQ(a.evictedTag, b.evictedTag)
                << spec.name() << " access " << i;
        }
        EXPECT_EQ(packed.stats(), scalar.stats()) << spec.name();
        EXPECT_EQ(packed.cacheStats(), scalar.cacheStats()) << spec.name();
    }
}

TEST(FastpathEquiv, FastFallsBackForUnsupportedGeometry)
{
    // 128-way LLC: the scalar PLRU tree takes it, but the packed
    // model stops at 64 ways, so replay() must transparently match
    // the scalar engine via fallback.
    CacheConfig cfg;
    cfg.sizeBytes = 128 * 64 * 16; // 16 sets
    cfg.assoc = 128;
    cfg.blockBytes = 64;
    const fastpath::ReplaySpec spec = fastpath::plruSpec();
    EXPECT_FALSE(fastpath::FastReplayEngine::supports(spec, cfg));
    const Trace trace = randomStream(5'000, 0xfa11, cfg);
    const fastpath::ScalarReplayEngine scalar;
    const fastpath::FastReplayEngine fast(2);
    EXPECT_EQ(scalar.replay(spec, cfg, trace, 1000),
              fast.replay(spec, cfg, trace, 1000));
}

} // namespace gippr
