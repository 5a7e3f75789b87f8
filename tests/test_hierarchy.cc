/**
 * @file
 * Tests for the L1/L2 cascade (the level of each reference and the
 * stream it passes to the LLC) and LLC trace filtering.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/hierarchy.hh"

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
    uint64_t pc;
};

/** Runs references through one Hierarchy and logs its LLC calls. */
class Cascade
{
  public:
    Cascade() : hier_(tinyHier()) {}

    /** Service one reference; the LLC callback reports @p llc_hit. */
    HitLevel
    access(uint64_t addr, bool is_write, uint64_t pc = 0x400000,
           bool llc_hit = false)
    {
        MemRecord rec;
        rec.addr = addr;
        rec.isWrite = is_write;
        rec.pc = pc;
        calls.clear();
        return hier_.access(
            rec, [&](uint64_t a, AccessType type, uint64_t p) {
                calls.push_back({a, type, p});
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
    EXPECT_EQ(c.access(0x1000, false, 0x400123), HitLevel::Memory);
    ASSERT_EQ(c.calls.size(), 1u);
    EXPECT_EQ(c.calls[0].addr, 0x1000u);
    EXPECT_EQ(c.calls[0].type, AccessType::Load);
    EXPECT_EQ(c.calls[0].pc, 0x400123u);
    // The level beyond the L2 is whatever the LLC callback reports.
    EXPECT_EQ(c.access(0x2000, false, 0x400123, true), HitLevel::Llc);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    Cascade c;
    c.access(0x1000, false);
    EXPECT_EQ(c.access(0x1000, false), HitLevel::L1);
    EXPECT_TRUE(c.calls.empty());
}

TEST(Hierarchy, L1EvictionFallsBackToL2)
{
    Cascade c;
    // Three blocks mapping to L1 set 0 (L1 has 4 sets): strides of
    // 4*64 = 256 bytes.
    c.access(0x0000, false);
    c.access(0x0100, false);
    c.access(0x0200, false); // evicts 0x0000 from L1
    EXPECT_EQ(c.access(0x0000, false), HitLevel::L2);
    EXPECT_TRUE(c.calls.empty());
}

TEST(Hierarchy, DirtyL1VictimWritesBackToL2)
{
    // Block 0 is loaded (clean in L1 and L2), then stored to: only the
    // L1 copy is dirty.  Blocks in the same L1 and L2 set (stride
    // 16 * 64 bytes) evict it from the L1, whose writeback dirties the
    // L2 copy, and then from the L2, which writes it back to the LLC.
    Cascade c;
    c.access(0, false);
    EXPECT_EQ(c.access(0, true), HitLevel::L1);
    std::vector<LlcCall> evicting;
    uint64_t demand = 0;
    for (uint64_t b = 1; b <= 8 && evicting.empty(); ++b) {
        demand = b * 16 * 64;
        c.access(demand, false, 0x400000 + b);
        for (const LlcCall &call : c.calls)
            if (call.type == AccessType::Writeback)
                evicting = c.calls;
    }
    // The dirty victim reaches the LLC as a pc-0 writeback, before
    // the demand that evicted it.
    ASSERT_EQ(evicting.size(), 2u);
    EXPECT_EQ(evicting[0].addr, 0u);
    EXPECT_EQ(evicting[0].type, AccessType::Writeback);
    EXPECT_EQ(evicting[0].pc, 0u);
    EXPECT_EQ(evicting[1].addr, demand);
    EXPECT_EQ(evicting[1].type, AccessType::Load);
}

TEST(Hierarchy, PcZeroDemandStoreReachesLlcAsStore)
{
    // The callback takes the access type, not a MemRecord, so a demand
    // store without a pc is not mistaken for a writeback.
    Cascade c;
    EXPECT_EQ(c.access(0x1000, true, 0), HitLevel::Memory);
    ASSERT_EQ(c.calls.size(), 1u);
    EXPECT_EQ(c.calls[0].type, AccessType::Store);
    EXPECT_EQ(c.calls[0].pc, 0u);
}

Trace
sequentialTrace(size_t blocks, uint32_t gap = 10)
{
    Trace t;
    for (size_t i = 0; i < blocks; ++i) {
        MemRecord r;
        r.addr = i * 64;
        r.pc = 0x400000 + i % 4;
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
        r.pc = 0x400000;
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
        r.pc = 0x400000;
        r.instGap = gap;
        cpu.append(r);
    }
    MemRecord cold;
    cold.addr = 0x2000;
    cold.pc = 0x400000;
    cpu.append(cold);
    EXPECT_DEATH(([&]() noexcept {
                     Hierarchy::filterToLlc(cpu, tinyHier());
                 })(),
                 "instruction gap 8589934591 at CPU record 3 overflows");
}

TEST(HierarchyFilter, SmallLoopGeneratesNoSteadyLlcTraffic)
{
    // A loop that fits in the L1 only touches the LLC during warmup.
    Trace cpu;
    for (int rep = 0; rep < 20; ++rep) {
        for (int b = 0; b < 4; ++b) {
            MemRecord r;
            r.addr = static_cast<uint64_t>(b) * 64 * 4; // 4 L1 sets
            r.pc = 0x400000;
            r.instGap = 1;
            cpu.append(r);
        }
    }
    Trace llc = Hierarchy::filterToLlc(cpu, tinyHier());
    EXPECT_EQ(llc.size(), 4u);
}

TEST(HierarchyFilter, WritebacksAppearAsPcZeroWrites)
{
    HierarchyConfig cfg = tinyHier();
    // Dirty a lot of distinct blocks so L2 eventually evicts dirty
    // lines into the LLC stream.
    Trace cpu;
    for (int i = 0; i < 200; ++i) {
        MemRecord r;
        r.addr = static_cast<uint64_t>(i) * 64;
        r.pc = 0x400000;
        r.isWrite = true;
        r.instGap = 1;
        cpu.append(r);
    }
    Trace llc = Hierarchy::filterToLlc(cpu, cfg);
    bool saw_writeback = false;
    for (const auto &r : llc)
        if (r.pc == 0 && r.isWrite)
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

} // namespace
} // namespace gippr
