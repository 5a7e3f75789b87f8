/**
 * @file
 * Tests for the interval CPU model, including a differential check of
 * its ring buffer against the deque-based model it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>

#include "sim/cpu_model.hh"
#include "util/rng.hh"

namespace gippr
{
namespace
{

TEST(CpuModel, L1HitsRunAtIssueWidth)
{
    CpuParams p;
    p.width = 4;
    CpuModel m(p);
    for (int i = 0; i < 1000; ++i)
        m.step(4, HitLevel::L1);
    m.drain();
    EXPECT_NEAR(m.ipc(), 4.0, 1e-9);
}

TEST(CpuModel, IpcNeverExceedsWidth)
{
    CpuParams p;
    p.width = 4;
    CpuModel m(p);
    for (int i = 0; i < 100; ++i)
        m.step(1, HitLevel::L1);
    m.drain();
    EXPECT_LE(m.ipc(), 4.0 + 1e-9);
}

TEST(CpuModel, MemoryMissesAddLatency)
{
    CpuParams p;
    CpuModel hits(p), misses(p);
    for (int i = 0; i < 100; ++i) {
        hits.step(10, HitLevel::L1);
        misses.step(10, HitLevel::Memory);
    }
    hits.drain();
    misses.drain();
    EXPECT_GT(misses.cycles(), hits.cycles());
    EXPECT_LT(misses.ipc(), hits.ipc());
}

TEST(CpuModel, LatencyOrderingAcrossLevels)
{
    auto run = [](HitLevel level) {
        CpuModel m{CpuParams{}};
        for (int i = 0; i < 200; ++i)
            m.step(4, level);
        m.drain();
        return m.ipc();
    };
    double l1 = run(HitLevel::L1);
    double l2 = run(HitLevel::L2);
    double llc = run(HitLevel::Llc);
    double mem = run(HitLevel::Memory);
    EXPECT_GT(l1, l2);
    EXPECT_GT(l2, llc);
    EXPECT_GT(llc, mem);
}

TEST(CpuModel, MlpOverlapsAdjacentMisses)
{
    // Two misses issued back-to-back (within the window) must cost
    // far less than two serialized misses.
    CpuParams p;
    p.robSize = 128;
    CpuModel overlapped(p);
    overlapped.step(1, HitLevel::Memory);
    overlapped.step(1, HitLevel::Memory);
    overlapped.drain();

    CpuModel serial(p);
    serial.step(1, HitLevel::Memory);
    // Separate the misses by more than the window: the model must
    // stall on the first before issuing the second.
    serial.step(400, HitLevel::Memory);
    serial.drain();

    EXPECT_LT(overlapped.cycles(), 1.5 * p.latMemory);
    EXPECT_GT(serial.cycles(), 2.0 * p.latMemory);
}

TEST(CpuModel, WindowLimitSerializesDistantMisses)
{
    // Misses robSize apart cannot overlap.
    CpuParams p;
    p.robSize = 64;
    CpuModel m(p);
    m.step(1, HitLevel::Memory);
    m.step(65, HitLevel::Memory); // oldest falls outside the window
    m.drain();
    EXPECT_GT(m.cycles(), 2.0 * p.latMemory * 0.9);
}

TEST(CpuModel, MshrLimitBoundsOutstanding)
{
    CpuParams p;
    p.mshrs = 2;
    p.robSize = 1024;
    CpuModel m(p);
    // Four adjacent misses with only 2 MSHRs: roughly two waves.
    for (int i = 0; i < 4; ++i)
        m.step(1, HitLevel::Memory);
    m.drain();
    EXPECT_GT(m.cycles(), 1.9 * p.latMemory);
}

TEST(CpuModel, DrainWaitsForOutstanding)
{
    CpuParams p;
    CpuModel m(p);
    m.step(1, HitLevel::Memory);
    double before = m.cycles();
    m.drain();
    EXPECT_GT(m.cycles(), before);
    EXPECT_GE(m.cycles(), p.latMemory);
}

TEST(CpuModel, ClearStatsStartsMeasuredRegion)
{
    CpuModel m{CpuParams{}};
    for (int i = 0; i < 100; ++i)
        m.step(10, HitLevel::Memory);
    m.clearStats();
    EXPECT_EQ(m.instructions(), 0u);
    EXPECT_DOUBLE_EQ(m.cycles(), 0.0);
    for (int i = 0; i < 100; ++i)
        m.step(10, HitLevel::L1);
    m.drain();
    EXPECT_EQ(m.instructions(), 1000u);
    EXPECT_GT(m.ipc(), 0.0);
}

TEST(CpuModel, MoreMissesMeansLowerIpc)
{
    auto run = [](int miss_every) {
        CpuModel m{CpuParams{}};
        for (int i = 0; i < 2000; ++i) {
            bool miss = i % miss_every == 0;
            m.step(5, miss ? HitLevel::Memory : HitLevel::L1);
        }
        m.drain();
        return m.ipc();
    };
    EXPECT_GT(run(100), run(10));
    EXPECT_GT(run(10), run(2));
}

TEST(CpuModel, ZeroWidthIsFatal)
{
    CpuParams p;
    p.width = 0;
    EXPECT_DEATH(([&]() noexcept { CpuModel m(p); })(),
                 "CpuParams: width must be at least 1");
}

TEST(CpuModel, ZeroMshrsIsFatal)
{
    CpuParams p;
    p.mshrs = 0;
    EXPECT_DEATH(([&]() noexcept { CpuModel m(p); })(),
                 "CpuParams: mshrs must be at least 1");
}

/**
 * The CPU model as it was before its ring buffer: the outstanding
 * accesses in a std::deque and the latencies behind a switch.  The
 * ring-buffer model must reproduce it bit for bit.
 */
class DequeCpuModel
{
  public:
    explicit DequeCpuModel(CpuParams params) : params_(params) {}

    void
    step(uint32_t inst_gap, HitLevel level)
    {
        instructions_ += inst_gap;
        totalInstructions_ += inst_gap;
        const double issue = static_cast<double>(inst_gap) /
                             static_cast<double>(params_.width);
        cycles_ += issue;
        while (!inflight_.empty()) {
            const Outstanding &oldest = inflight_.front();
            bool outside_window =
                totalInstructions_ - oldest.instIndex >
                static_cast<uint64_t>(params_.robSize);
            if (oldest.completeCycle <= cycles_) {
                inflight_.pop_front();
            } else if (outside_window ||
                       inflight_.size() >= params_.mshrs) {
                cycles_ = oldest.completeCycle;
                inflight_.pop_front();
            } else {
                break;
            }
        }
        const double lat = latencyOf(level);
        if (lat > 0.0)
            inflight_.push_back({totalInstructions_, cycles_ + lat});
    }

    void
    drain()
    {
        if (!inflight_.empty()) {
            double last = cycles_;
            for (const Outstanding &o : inflight_)
                last = std::max(last, o.completeCycle);
            cycles_ = last;
            inflight_.clear();
        }
    }

    void
    clearStats()
    {
        cycles_ = 0.0;
        instructions_ = 0;
        if (!inflight_.empty()) {
            double base = inflight_.front().completeCycle;
            for (Outstanding &o : inflight_)
                o.completeCycle = std::max(0.0, o.completeCycle - base);
        }
    }

    uint64_t instructions() const { return instructions_; }
    double cycles() const { return cycles_; }

  private:
    struct Outstanding
    {
        uint64_t instIndex;
        double completeCycle;
    };

    double
    latencyOf(HitLevel level) const
    {
        switch (level) {
          case HitLevel::L1:
            return 0.0;
          case HitLevel::L2:
            return params_.latL2;
          case HitLevel::Llc:
            return params_.latLlc;
          case HitLevel::Memory:
            return params_.latMemory;
        }
        return 0.0;
    }

    CpuParams params_;
    double cycles_ = 0.0;
    uint64_t instructions_ = 0;
    uint64_t totalInstructions_ = 0;
    std::deque<Outstanding> inflight_;
};

TEST(CpuModel, MatchesDequeReference)
{
    // Gaps from 0 (several accesses issued together) past the larger
    // ROB (the window stalls), and a width of 3 so issue cycles are
    // inexact doubles; clearStats lands partway with accesses in
    // flight.
    constexpr int kSteps = 20000;
    constexpr HitLevel kLevels[] = {HitLevel::L1, HitLevel::L2,
                                    HitLevel::Llc, HitLevel::Memory};
    Rng rng(20131207);
    for (unsigned mshrs : {1u, 2u, 16u}) {
        for (unsigned rob : {8u, 128u}) {
            SCOPED_TRACE("mshrs " + std::to_string(mshrs) + " rob " +
                         std::to_string(rob));
            CpuParams p;
            p.width = 3;
            p.mshrs = mshrs;
            p.robSize = rob;
            CpuModel ring(p);
            DequeCpuModel ref(p);
            for (int i = 0; i < kSteps; ++i) {
                if (i == kSteps / 3) {
                    ring.clearStats();
                    ref.clearStats();
                }
                const uint64_t pick = rng.nextBounded(8);
                const uint32_t gap = static_cast<uint32_t>(
                    pick == 0   ? 0
                    : pick == 1 ? rng.nextBounded(300)
                                : rng.nextBounded(12));
                const HitLevel level = kLevels[rng.nextBounded(4)];
                ring.step(gap, level);
                ref.step(gap, level);
                ASSERT_EQ(ring.cycles(), ref.cycles()) << "step " << i;
                ASSERT_EQ(ring.instructions(), ref.instructions())
                    << "step " << i;
            }
            ring.drain();
            ref.drain();
            EXPECT_EQ(ring.cycles(), ref.cycles());
            EXPECT_EQ(ring.instructions(), ref.instructions());
        }
    }
}

} // namespace
} // namespace gippr
