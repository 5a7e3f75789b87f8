/**
 * @file
 * Tests for the L1/L2 cascade (the level of each reference and the
 * stream it passes to the LLC), its differential check against a
 * scalar SetAssocCache + LruPolicy cascade, and LLC trace filtering.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/replay.hh"
#include "policies/lru.hh"
#include "sim/fastpath/hierarchy.hh"
#include "util/rng.hh"

namespace gippr
{
namespace
{

HierarchyConfig
tinyHier()
{
    HierarchyConfig h;
    h.l1 = {"L1", 4 * 2 * 64, 2, 64};    // 4 sets x 2 ways
    h.l2 = {"L2", 16 * 4 * 64, 4, 64};   // 16 sets x 4 ways
    h.llc = {"LLC", 64 * 8 * 64, 8, 64}; // 64 sets x 8 ways
    return h;
}

/** One access that the cascade passed to the LLC callback. */
struct LlcCall
{
    uint64_t addr;
    AccessType type;

    bool operator==(const LlcCall &o) const = default;
};

/** Runs references through one Hierarchy and logs its LLC calls. */
class Cascade
{
  public:
    Cascade() : hier_(tinyHier()) {}

    /** Service one reference; the LLC callback reports @p llc_hit. */
    HitLevel
    access(uint64_t addr, AccessType type, bool llc_hit = false)
    {
        MemRecord rec;
        rec.addr = addr;
        rec.type = type;
        calls.clear();
        return hier_.access(rec, [&](uint64_t a, AccessType t) {
            calls.push_back({a, t});
            return llc_hit;
        });
    }

    /** The LLC calls of the last access, in order. */
    std::vector<LlcCall> calls;

  private:
    Hierarchy hier_;
};

TEST(Hierarchy, FirstAccessMissesEverywhere)
{
    Cascade c;
    EXPECT_EQ(c.access(0x1000, AccessType::Load), HitLevel::Memory);
    ASSERT_EQ(c.calls.size(), 1u);
    EXPECT_EQ(c.calls[0].addr, 0x1000u);
    EXPECT_EQ(c.calls[0].type, AccessType::Load);
    // The level beyond the L2 is whatever the LLC callback reports.
    EXPECT_EQ(c.access(0x2000, AccessType::Load, true), HitLevel::Llc);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    Cascade c;
    c.access(0x1000, AccessType::Load);
    EXPECT_EQ(c.access(0x1000, AccessType::Load), HitLevel::L1);
    EXPECT_TRUE(c.calls.empty());
}

TEST(Hierarchy, L1EvictionFallsBackToL2)
{
    Cascade c;
    // Three blocks mapping to L1 set 0 (L1 has 4 sets): strides of
    // 4*64 = 256 bytes.
    c.access(0x0000, AccessType::Load);
    c.access(0x0100, AccessType::Load);
    c.access(0x0200, AccessType::Load); // evicts 0x0000 from L1
    EXPECT_EQ(c.access(0x0000, AccessType::Load), HitLevel::L2);
    EXPECT_TRUE(c.calls.empty());
}

TEST(Hierarchy, DirtyL1VictimWritesBackToL2)
{
    // Block 0 is loaded (clean in L1 and L2), then stored to: only the
    // L1 copy is dirty.  Blocks in the same L1 and L2 set (stride
    // 16 * 64 bytes) evict it from the L1, whose writeback dirties the
    // L2 copy, and then from the L2, which writes it back to the LLC.
    Cascade c;
    c.access(0, AccessType::Load);
    EXPECT_EQ(c.access(0, AccessType::Store), HitLevel::L1);
    std::vector<LlcCall> evicting;
    uint64_t demand = 0;
    for (uint64_t b = 1; b <= 8 && evicting.empty(); ++b) {
        demand = b * 16 * 64;
        c.access(demand, AccessType::Load);
        for (const LlcCall &call : c.calls)
            if (call.type == AccessType::Writeback)
                evicting = c.calls;
    }
    // The dirty victim reaches the LLC as a writeback, before the
    // demand that evicted it.
    ASSERT_EQ(evicting.size(), 2u);
    EXPECT_EQ(evicting[0].addr, 0u);
    EXPECT_EQ(evicting[0].type, AccessType::Writeback);
    EXPECT_EQ(evicting[1].addr, demand);
    EXPECT_EQ(evicting[1].type, AccessType::Load);
}

TEST(Hierarchy, CpuWritebackRecordReachesLlcAsStore)
{
    // Only the L2's dirty victims reach the LLC as writebacks: a CPU
    // record typed Writeback is a store to the caches above it.
    Cascade c;
    EXPECT_EQ(c.access(0x1000, AccessType::Writeback), HitLevel::Memory);
    ASSERT_EQ(c.calls.size(), 1u);
    EXPECT_EQ(c.calls[0].type, AccessType::Store);
    EXPECT_EQ(c.access(0x2000, AccessType::Store), HitLevel::Memory);
    ASSERT_EQ(c.calls.size(), 1u);
    EXPECT_EQ(c.calls[0].type, AccessType::Store);
}

/**
 * The scalar cascade Hierarchy replaced: a SetAssocCache with an
 * LruPolicy at each level, in the same event order.  It counts the
 * two outcomes of a dirty L1 victim's writeback into the L2, so the
 * differential test can show its stream reached both.
 */
class ScalarCascade
{
  public:
    explicit ScalarCascade(const HierarchyConfig &config)
        : l1_(config.l1, std::make_unique<LruPolicy>(config.l1)),
          l2_(config.l2, std::make_unique<LruPolicy>(config.l2))
    {
    }

    HitLevel
    access(const MemRecord &rec, std::vector<LlcCall> &calls,
           bool (*llc_hit)(uint64_t))
    {
        const AccessType type = rec.type == AccessType::Load
                                    ? AccessType::Load
                                    : AccessType::Store;
        const AccessResult r1 = l1_.access(rec.addr, type);
        if (r1.hit)
            return HitLevel::L1;
        if (r1.evictedBlock && r1.evictedDirty) {
            const AccessResult wb = l2_.access(
                *r1.evictedBlock << l1_.config().blockShift(),
                AccessType::Writeback);
            ++(wb.hit ? dirtyVictimL2Hits : dirtyVictimL2Misses);
            if (wb.evictedBlock && wb.evictedDirty)
                calls.push_back(
                    {*wb.evictedBlock << l2_.config().blockShift(),
                     AccessType::Writeback});
        }
        const AccessResult r2 = l2_.access(rec.addr, type);
        if (r2.evictedBlock && r2.evictedDirty)
            calls.push_back({*r2.evictedBlock << l2_.config().blockShift(),
                             AccessType::Writeback});
        if (r2.hit)
            return HitLevel::L2;
        calls.push_back({rec.addr, type});
        return llc_hit(rec.addr) ? HitLevel::Llc : HitLevel::Memory;
    }

    uint64_t dirtyVictimL2Hits = 0;
    uint64_t dirtyVictimL2Misses = 0;

  private:
    SetAssocCache l1_;
    SetAssocCache l2_;
};

/** Whether the stub LLC hits: a fixed function of the address. */
bool
stubLlcHit(uint64_t addr)
{
    return ((addr >> 6) * 0x9e3779b97f4a7c15ULL) >> 63;
}

/**
 * Randomized Load/Store stream over @p config: half the references
 * reuse a hot group a quarter the size of the L1, the rest draw from
 * four times the L2's blocks, at any byte offset.
 * The hot blocks live in the L1 long enough for the pool to push their
 * L2 copies out, so some dirty L1 victims miss in the L2.
 */
std::vector<MemRecord>
randomStream(const HierarchyConfig &config, size_t n, uint64_t seed)
{
    const uint64_t block = config.l1.blockBytes;
    const uint64_t hot = config.l1.sizeBytes / block / 4;
    const uint64_t pool = 4 * config.l2.sizeBytes / block;
    Rng rng(seed);
    std::vector<MemRecord> out(n);
    for (MemRecord &r : out) {
        const uint64_t b = rng.nextBool(0.5) ? rng.nextBounded(hot)
                                             : rng.nextBounded(pool);
        r.addr = 0x7f3a00000000ULL + b * block + rng.nextBounded(block);
        if (rng.nextBool(0.3))
            r.type = AccessType::Store;
    }
    return out;
}

/** Stream length per geometry: GIPPR_FASTPATH_EQUIV_ACCESSES, as in
 *  test_fastpath_equiv (CI's sanitizer job runs 1M), else 100k. */
size_t
equivAccesses()
{
    const char *env = std::getenv("GIPPR_FASTPATH_EQUIV_ACCESSES");
    return env ? std::strtoull(env, nullptr, 10) : 100'000;
}

TEST(Hierarchy, PackedCascadeMatchesScalarCascade)
{
    HierarchyConfig small;
    small.l1 = {"L1", 4 * 1024, 8, 64};
    small.l2 = {"L2", 8 * 1024, 8, 64};
    HierarchyConfig paper;
    paper.l1 = CacheConfig::paperL1d();
    paper.l2 = CacheConfig::paperL2();
    // The L2 at the row's narrowest width, at a width that is not a
    // power of two, and at its widest.
    HierarchyConfig two_way = small;
    two_way.l2 = {"L2", 128 * 2 * 64, 2, 64};
    HierarchyConfig twelve_way = small;
    twelve_way.l2 = {"L2", 32 * 12 * 64, 12, 64};
    HierarchyConfig wide = small;
    wide.l2 = {"L2", 8 * 64 * 64, 64, 64};
    const HierarchyConfig geometries[] = {tinyHier(), small,      paper,
                                          two_way,    twelve_way, wide};

    for (const HierarchyConfig &config : geometries) {
        SCOPED_TRACE(std::to_string(config.l1.sizeBytes) + "B " +
                     std::to_string(config.l1.assoc) + "-way L1, " +
                     std::to_string(config.l2.sizeBytes) + "B " +
                     std::to_string(config.l2.assoc) + "-way L2");
        Hierarchy packed(config);
        ScalarCascade scalar(config);
        std::vector<LlcCall> got;
        std::vector<LlcCall> want;
        const std::vector<MemRecord> stream =
            randomStream(config, equivAccesses(),
                         config.l2.sizeBytes);
        for (size_t i = 0; i < stream.size(); ++i) {
            got.clear();
            want.clear();
            const HitLevel level = packed.access(
                stream[i], [&](uint64_t a, AccessType type) {
                    got.push_back({a, type});
                    return stubLlcHit(a);
                });
            ASSERT_EQ(level, scalar.access(stream[i], want, stubLlcHit))
                << "record " << i;
            ASSERT_EQ(got.size(), want.size()) << "record " << i;
            for (size_t k = 0; k < got.size(); ++k)
                ASSERT_EQ(got[k], want[k])
                    << "record " << i << " call " << k << " addr 0x"
                    << std::hex << got[k].addr << " vs 0x" << want[k].addr;
        }
        // Both outcomes of a dirty L1 victim's writeback into the L2:
        // a hit (which must not promote) and an allocating miss.
        EXPECT_GT(scalar.dirtyVictimL2Hits, 0u);
        EXPECT_GT(scalar.dirtyVictimL2Misses, 0u);
    }
}

Trace
sequentialTrace(size_t blocks, uint32_t gap = 10)
{
    Trace t;
    for (size_t i = 0; i < blocks; ++i) {
        MemRecord r;
        r.addr = i * 64;
        r.instGap = gap;
        t.append(r);
    }
    return t;
}

TEST(HierarchyFilter, ColdStreamPassesThrough)
{
    // Every block distinct: every reference reaches the LLC.
    Trace cpu = sequentialTrace(100);
    Trace llc = Hierarchy::filterToLlc(cpu, tinyHier());
    EXPECT_EQ(llc.size(), 100u);
}

TEST(HierarchyFilter, L1HitsAreFiltered)
{
    // Same block over and over: only the first reference reaches LLC.
    Trace cpu;
    for (int i = 0; i < 50; ++i) {
        MemRecord r;
        r.addr = 0x1000;
        r.instGap = 2;
        cpu.append(r);
    }
    Trace llc = Hierarchy::filterToLlc(cpu, tinyHier());
    EXPECT_EQ(llc.size(), 1u);
}

TEST(HierarchyFilter, InstructionGapsAccumulate)
{
    // Filtered records carry the instruction gaps of the references
    // they absorbed, so instruction totals are preserved up to the
    // trailing references after the last LLC access.
    Trace cpu = sequentialTrace(100, 7);
    Trace llc = Hierarchy::filterToLlc(cpu, tinyHier());
    EXPECT_EQ(llc.instructions(), cpu.instructions());
}

TEST(HierarchyFilter, InstructionGapOverflowIsFatal)
{
    // Two filtered L1 hits of 2^32 - 1 instructions each leave a gap
    // that the next emitted record's 32-bit instGap cannot carry.
    Trace cpu;
    for (uint32_t gap : {1u, 0xFFFFFFFFu, 0xFFFFFFFFu}) {
        MemRecord r;
        r.addr = 0x1000;
        r.instGap = gap;
        cpu.append(r);
    }
    MemRecord cold;
    cold.addr = 0x2000;
    cpu.append(cold);
    EXPECT_DEATH(([&]() noexcept {
                     Hierarchy::filterToLlc(cpu, tinyHier());
                 })(),
                 "instruction gap 8589934591 at CPU record 3 overflows");
}

TEST(HierarchyFilter, UnsupportedGeometryIsFatal)
{
    // The packed LRU runs 2..64 ways; the check must hold in release
    // builds too, where the model's own GIPPR_CHECK compiles out.
    HierarchyConfig direct_mapped = tinyHier();
    direct_mapped.l1 = {"L1", 4 * 64, 1, 64};
    EXPECT_DEATH(([&]() noexcept { Hierarchy h(direct_mapped); })(),
                 "Hierarchy: L1 'L1' is 1-way; the packed LRU supports "
                 "2 to 64 ways");
    HierarchyConfig wide = tinyHier();
    wide.l2 = {"L2", 2 * 128 * 64, 128, 64};
    EXPECT_DEATH(([&]() noexcept { Hierarchy h(wide); })(),
                 "Hierarchy: L2 'L2' is 128-way");
    HierarchyConfig three_sets = tinyHier();
    three_sets.l2 = {"L2", 3 * 4 * 64, 4, 64};
    EXPECT_DEATH(([&]() noexcept {
                     Hierarchy::filterToLlc(sequentialTrace(4),
                                            three_sets);
                 })(),
                 "L2: number of sets must be a power of two");
}

TEST(HierarchyFilter, SmallLoopGeneratesNoSteadyLlcTraffic)
{
    // A loop that fits in the L1 only touches the LLC during warmup.
    Trace cpu;
    for (int rep = 0; rep < 20; ++rep) {
        for (int b = 0; b < 4; ++b) {
            MemRecord r;
            r.addr = static_cast<uint64_t>(b) * 64 * 4; // 4 L1 sets
                r.instGap = 1;
            cpu.append(r);
        }
    }
    Trace llc = Hierarchy::filterToLlc(cpu, tinyHier());
    EXPECT_EQ(llc.size(), 4u);
}

TEST(HierarchyFilter, WritebacksAppearAsWritebackRecords)
{
    HierarchyConfig cfg = tinyHier();
    // Dirty a lot of distinct blocks so L2 eventually evicts dirty
    // lines into the LLC stream.
    Trace cpu;
    for (int i = 0; i < 200; ++i) {
        MemRecord r;
        r.addr = static_cast<uint64_t>(i) * 64;
        r.type = AccessType::Store;
        r.instGap = 1;
        cpu.append(r);
    }
    Trace llc = Hierarchy::filterToLlc(cpu, cfg);
    bool saw_writeback = false;
    for (const auto &r : llc)
        if (r.type == AccessType::Writeback)
            saw_writeback = true;
    EXPECT_TRUE(saw_writeback);
}

TEST(HierarchyFilter, DeterministicForSameInput)
{
    Trace cpu = sequentialTrace(500);
    Trace a = Hierarchy::filterToLlc(cpu, tinyHier());
    Trace b = Hierarchy::filterToLlc(cpu, tinyHier());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i] == b[i]) << i;
}

/** One access that reaches the LLC, with the CPU gap before it. */
struct GapCall
{
    uint32_t gap;
    uint64_t addr;
    AccessType type;
};

/** Replay @p calls into a recorder; returns what it recorded. */
Trace
recordCalls(const std::vector<GapCall> &calls, bool keep_writebacks)
{
    Trace out;
    LlcRecorder record(out, keep_writebacks);
    for (const GapCall &c : calls) {
        record.addGap(c.gap);
        record(c.addr, c.type);
    }
    return out;
}

TEST(LlcRecorder, DroppingWritebacksMatchesDemandOnlyTrace)
{
    // Random streams of demand loads, demand stores and writebacks.
    Rng rng(71);
    for (int round = 0; round < 50; ++round) {
        std::vector<GapCall> calls;
        for (int i = 0; i < 400; ++i) {
            const uint64_t pick = rng.nextBounded(4);
            const AccessType type = pick == 0   ? AccessType::Writeback
                                    : pick == 1 ? AccessType::Store
                                                : AccessType::Load;
            calls.push_back({static_cast<uint32_t>(rng.nextBounded(50)),
                             rng.nextBounded(1 << 20) * 64, type});
        }
        const Trace full = recordCalls(calls, true);
        const Trace streamed = recordCalls(calls, false);
        const Trace stripped = demandOnlyTrace(full);
        ASSERT_EQ(full.size(), calls.size());
        EXPECT_EQ(streamed.records(), stripped.records());
        EXPECT_EQ(streamed.instructions(), stripped.instructions());
    }
}

TEST(LlcRecorder, DroppingWritebacksIsFatalWhereStrippingIs)
{
    constexpr uint32_t kMax = 0xFFFFFFFFu;
    const GapCall wb{kMax, 0x40, AccessType::Writeback};
    const GapCall load{kMax, 0x80, AccessType::Load};

    // Each gap fits, but the dropped writeback's gap carried into the
    // next demand does not: only stripping the full stream overflows.
    const std::vector<GapCall> carried = {wb, load};
    const Trace full = recordCalls(carried, true);
    EXPECT_DEATH(([&]() noexcept { demandOnlyTrace(full); })(),
                 "instruction gap 8589934590 at LLC record 1 overflows");
    EXPECT_DEATH(([&]() noexcept { recordCalls(carried, false); })(),
                 "instruction gap 8589934590 at CPU record 1 overflows");

    // A writeback whose own gap overflows, with no record after it:
    // recording the full stream is fatal, so dropping it must be too.
    for (bool keep : {true, false}) {
        EXPECT_DEATH(([&]() noexcept {
                         Trace out;
                         LlcRecorder record(out, keep);
                         record.addGap(kMax); // an L1 hit
                         record.addGap(1);
                         record(0x40, AccessType::Writeback);
                     })(),
                     "instruction gap 4294967296 at CPU record 1 "
                     "overflows");
    }
}

} // namespace
} // namespace gippr
