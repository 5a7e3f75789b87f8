/**
 * @file
 * Tests for the shared worker-thread loop (util/parallel.hh).
 *
 * Doubles as the ThreadSanitizer CI job's main workload: every test
 * here runs the pool with more threads than cores and hammers shared
 * state through the patterns the harnesses actually use (per-index
 * slot writes, atomic accumulation), so a race in the pool or a
 * misuse pattern in a test shows up as a TSan report.
 */

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/parallel.hh"
#include "util/rng.hh"

namespace gippr
{
namespace
{

TEST(ResolveThreads, ExplicitRequestWins)
{
    EXPECT_EQ(resolveThreads(1), 1u);
    EXPECT_EQ(resolveThreads(7), 7u);
}

TEST(ResolveThreads, ZeroMeansHardware)
{
    // Can't know the machine, but the contract is "never zero".
    EXPECT_GE(resolveThreads(0), 1u);
}

#ifdef __linux__
TEST(ResolveThreads, ZeroCountsTheAffinityMask)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
    EXPECT_EQ(resolveThreads(0), static_cast<unsigned>(CPU_COUNT(&mask)));

    // Narrowed to one CPU (as under taskset -c N), zero means one.
    int cpu = 0;
    while (!CPU_ISSET(cpu, &mask))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    const unsigned narrowed = resolveThreads(0);
    ASSERT_EQ(sched_setaffinity(0, sizeof mask, &mask), 0);
    EXPECT_EQ(narrowed, 1u);
}
#endif

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const size_t n = 10'000;
    std::vector<std::atomic<uint32_t>> hits(n);
    parallelFor(n, 8, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelFor, PerIndexSlotWritesArePublished)
{
    // The idiom the experiment harness and GA evaluator rely on:
    // worker i writes only results[i]; after join, the caller reads
    // them all without further synchronization.
    const size_t n = 4096;
    std::vector<uint64_t> results(n, 0);
    parallelFor(n, 16, [&](size_t i) { results[i] = i * i; });
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(results[i], i * i);
}

TEST(ParallelFor, AtomicAccumulation)
{
    const size_t n = 50'000;
    std::atomic<uint64_t> sum{0};
    parallelFor(n, 8, [&](size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ParallelFor, InlineWhenSingleThreaded)
{
    // threads <= 1 must run on the calling thread, in order.
    std::vector<size_t> order;
    parallelFor(100, 1, [&](size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 100u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, MoreThreadsThanWork)
{
    std::vector<std::atomic<uint32_t>> hits(3);
    parallelFor(3, 64, [&](size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1u);
}

TEST(ParallelFor, ZeroItemsIsNoop)
{
    bool called = false;
    parallelFor(0, 8, [&](size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, SplitRngStreamsAreIndependent)
{
    // The GA evaluates individuals with per-worker Rngs split off a
    // parent; reproduce that pattern so TSan sees the split + use.
    const size_t n = 256;
    Rng parent(42);
    std::vector<Rng> rngs;
    rngs.reserve(n);
    for (size_t i = 0; i < n; ++i)
        rngs.push_back(parent.split());
    std::vector<uint64_t> draws(n, 0);
    parallelFor(n, 8, [&](size_t i) { draws[i] = rngs[i].next(); });
    // Spot-check the streams didn't collapse to one value.
    const uint64_t first = draws[0];
    bool all_equal = true;
    for (uint64_t d : draws)
        all_equal = all_equal && d == first;
    EXPECT_FALSE(all_equal);
}

TEST(ParallelFor, WorkerExceptionReachesCaller)
{
    // A fitness evaluation that throws (e.g. an I/O error in a
    // streamed trace) must surface on the calling thread, not
    // std::terminate the process.
    EXPECT_THROW(parallelFor(1000, 8,
                             [&](size_t i) {
                                 if (i == 137)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, ExceptionCancelsRemainingWork)
{
    // After a worker throws, the pool stops handing out new indices;
    // far fewer than all items should run.
    std::atomic<uint64_t> ran{0};
    EXPECT_THROW(parallelFor(1'000'000, 4,
                             [&](size_t) {
                                 ran.fetch_add(
                                     1, std::memory_order_relaxed);
                                 throw std::runtime_error("first");
                             }),
                 std::runtime_error);
    EXPECT_LT(ran.load(), 1'000'000u);
}

TEST(ParallelFor, InlineExceptionPropagates)
{
    // threads <= 1 runs inline; the exception must pass through
    // unchanged there too.
    EXPECT_THROW(parallelFor(10, 1,
                             [&](size_t i) {
                                 if (i == 3)
                                     throw std::runtime_error("inline");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, RepeatedPoolsDontInterfere)
{
    // Back-to-back pools reusing the same buffers, as the experiment
    // harness does per workload.
    const size_t n = 2048;
    std::vector<uint64_t> buf(n, 0);
    for (int round = 1; round <= 4; ++round) {
        parallelFor(n, 8, [&](size_t i) {
            buf[i] += static_cast<uint64_t>(round);
        });
    }
    const uint64_t want = 1 + 2 + 3 + 4;
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(buf[i], want);
}

} // namespace
} // namespace gippr
