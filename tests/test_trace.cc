/**
 * @file
 * Unit tests for the trace module (trace, IO, simpoints).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace/simpoint.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace gippr
{
namespace
{

MemRecord
rec(uint64_t addr, uint32_t gap = 1, bool write = false,
    uint64_t pc = 0x400000)
{
    MemRecord r;
    r.addr = addr;
    r.instGap = gap;
    r.isWrite = write;
    r.pc = pc;
    return r;
}

TEST(Trace, AppendTracksTotals)
{
    Trace t;
    t.append(rec(0x100, 5));
    t.append(rec(0x200, 3, true));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.instructions(), 8u);
    EXPECT_EQ(t.writes(), 1u);
}

TEST(Trace, ConstructFromVector)
{
    std::vector<MemRecord> recs{rec(0x100, 2), rec(0x140, 4, true)};
    Trace t(recs);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.instructions(), 6u);
    EXPECT_EQ(t.writes(), 1u);
}

TEST(Trace, FootprintCountsDistinctBlocks)
{
    Trace t;
    t.append(rec(0));
    t.append(rec(63));  // same 64B block
    t.append(rec(64));  // next block
    t.append(rec(128)); // third block
    t.append(rec(64));  // repeat
    EXPECT_EQ(t.footprintBlocks(64), 3u);
}

TEST(Trace, FootprintRespectsBlockSize)
{
    Trace t;
    t.append(rec(0));
    t.append(rec(64));
    EXPECT_EQ(t.footprintBlocks(128), 1u);
    EXPECT_EQ(t.footprintBlocks(64), 2u);
}

TEST(Trace, AccessesPerKiloInst)
{
    Trace t;
    for (int i = 0; i < 10; ++i)
        t.append(rec(static_cast<uint64_t>(i) * 64, 100));
    EXPECT_DOUBLE_EQ(t.accessesPerKiloInst(), 10.0);
}

TEST(Trace, EmptyTraceSafeAccessors)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.instructions(), 0u);
    EXPECT_DOUBLE_EQ(t.accessesPerKiloInst(), 0.0);
    EXPECT_EQ(t.footprintBlocks(), 0u);
}

TEST(Trace, IterationOrderPreserved)
{
    Trace t;
    for (uint64_t i = 0; i < 5; ++i)
        t.append(rec(i * 64));
    uint64_t expect = 0;
    for (const auto &r : t) {
        EXPECT_EQ(r.addr, expect * 64);
        ++expect;
    }
}

class TraceIoTest : public ::testing::Test
{
  protected:
    std::string
    tempPath()
    {
        // Unique per test: ctest runs each discovered test as its own
        // process in parallel, so a shared file name races.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        return ::testing::TempDir() + "gippr_trace_test_" +
               info->name() + ".bin";
    }

    void TearDown() override { std::remove(tempPath().c_str()); }
};

TEST_F(TraceIoTest, RoundTrip)
{
    Trace t;
    t.append(rec(0x1000, 3, false, 0x400100));
    t.append(rec(0x2040, 7, true, 0x400104));
    t.append(rec(0xdeadbeef00, 1, false, 0));
    t.append(rec(UINT64_MAX, 2, true, UINT64_MAX));
    writeTrace(t, tempPath());
    Trace u = readTrace(tempPath());
    ASSERT_EQ(u.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_TRUE(t[i] == u[i]) << i;
    EXPECT_EQ(u.instructions(), t.instructions());
    EXPECT_EQ(u.writes(), t.writes());
}

TEST_F(TraceIoTest, EmptyTraceRoundTrip)
{
    Trace t;
    writeTrace(t, tempPath());
    Trace u = readTrace(tempPath());
    EXPECT_TRUE(u.empty());
}

TEST_F(TraceIoTest, MissingFileThrows)
{
    EXPECT_THROW(readTrace("/nonexistent/path/xyz.bin"),
                 std::runtime_error);
}

TEST_F(TraceIoTest, GarbageFileThrows)
{
    std::FILE *f = std::fopen(tempPath().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
    EXPECT_THROW(readTrace(tempPath()), std::runtime_error);
}

TEST_F(TraceIoTest, FileBytesArePinned)
{
    // The v2 format is written field by field, little-endian and
    // unpadded, whatever MemRecord's in-memory layout: 16 header
    // bytes, 21 per record (gap u32, addr u64, pc u64, write u8), then
    // the CRC-32 of everything before it.
    Trace t;
    t.append(rec(0x1000, 3, false, 0x400100));      // load
    t.append(rec(0x2040, 7, true, 0x400104));       // store
    t.append(rec(0x7fffffffc0, 1, true, 0));        // writeback
    t.append(rec(0xdeadbeef00, 0xFFFFFFFFu, false, 0x400108));
    writeTrace(t, tempPath());

    const std::string expected_hex =
        "47505452" "02000000" "0400000000000000"
        "03000000" "0010000000000000" "0001400000000000" "00"
        "07000000" "4020000000000000" "0401400000000000" "01"
        "01000000" "c0ffffff7f000000" "0000000000000000" "01"
        "ffffffff" "00efbeadde000000" "0801400000000000" "00"
        "ef7d9838";
    std::ifstream in(tempPath(), std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>{}};
    std::string hex;
    for (unsigned char c : bytes) {
        static const char kDigits[] = "0123456789abcdef";
        hex.push_back(kDigits[c >> 4]);
        hex.push_back(kDigits[c & 0xf]);
    }
    EXPECT_EQ(bytes.size(), 16u + 4 * 21u + 4u);
    EXPECT_EQ(hex, expected_hex);

    const Trace u = readTrace(tempPath());
    ASSERT_EQ(u.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_TRUE(u[i] == t[i]) << i;
    EXPECT_EQ(u.instructions(), uint64_t{3 + 7 + 1} + 0xFFFFFFFFu);
    EXPECT_EQ(u.writes(), 2u);
}

TEST_F(TraceIoTest, ReadsLegacyV1Files)
{
    Trace t;
    t.append(rec(0x100, 2));
    t.append(rec(0x940, 5, true, 0x400200));
    writeTrace(t, tempPath());

    // Rewrite the v2 file as its v1 equivalent: version byte 1, no
    // CRC footer.  The reader must still accept it.
    std::ifstream in(tempPath(), std::ios::binary);
    std::vector<char> bytes(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>{});
    in.close();
    ASSERT_GE(bytes.size(), 20u);
    bytes[4] = 1;
    bytes.resize(bytes.size() - 4);
    std::ofstream out(tempPath(),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.close();

    const Trace u = readTrace(tempPath());
    ASSERT_EQ(u.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_TRUE(u[i] == t[i]) << i;
}

TEST(Workload, AddAndCombine)
{
    Workload w("bench");
    auto t1 = std::make_shared<Trace>();
    auto t2 = std::make_shared<Trace>();
    w.addSimpoint(t1, 3.0);
    w.addSimpoint(t2, 1.0);
    EXPECT_EQ(w.size(), 2u);
    EXPECT_DOUBLE_EQ(w.totalWeight(), 4.0);
    // Weighted mean of per-simpoint metrics.
    EXPECT_DOUBLE_EQ(w.combine({1.0, 5.0}), 2.0);
}

TEST(Workload, NamePreserved)
{
    Workload w("429.mcf-like");
    EXPECT_EQ(w.name(), "429.mcf-like");
}

TEST(Workload, SingleSimpointCombineIsIdentity)
{
    Workload w("x");
    w.addSimpoint(std::make_shared<Trace>(), 0.37);
    EXPECT_DOUBLE_EQ(w.combine({42.0}), 42.0);
}

} // namespace
} // namespace gippr
