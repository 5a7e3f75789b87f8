/**
 * @file
 * Unit tests for the trace module (trace, IO, simpoints).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "robust/atomic_io.hh"
#include "trace/simpoint.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace gippr
{
namespace
{

MemRecord
rec(uint64_t addr, uint32_t gap = 1, AccessType type = AccessType::Load)
{
    MemRecord r;
    r.addr = addr;
    r.instGap = gap;
    r.type = type;
    return r;
}

TEST(Trace, AppendTracksTotals)
{
    Trace t;
    t.append(rec(0x100, 5));
    t.append(rec(0x200, 3, AccessType::Store));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.instructions(), 8u);
    EXPECT_EQ(t.writes(), 1u);
}

TEST(Trace, ConstructFromVector)
{
    std::vector<MemRecord> recs{rec(0x100, 2),
                                rec(0x140, 4, AccessType::Writeback)};
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

    std::vector<char>
    fileBytes()
    {
        std::ifstream in(tempPath(), std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>{}};
    }

    void
    writeBytes(const std::vector<char> &bytes)
    {
        std::ofstream out(tempPath(), std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    /** readTrace's error message for the file, or "" if it reads. */
    std::string
    readError()
    {
        try {
            readTrace(tempPath());
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "";
    }
};

TEST_F(TraceIoTest, RoundTrip)
{
    Trace t;
    t.append(rec(0x1000, 3));
    t.append(rec(0x2040, 7, AccessType::Store));
    t.append(rec(0xdeadbeef00, 1, AccessType::Writeback));
    t.append(rec(UINT64_MAX, 2, AccessType::Store));
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
    // The v3 format is written field by field, little-endian and
    // unpadded, whatever MemRecord's in-memory layout: 16 header
    // bytes, 13 per record (gap u32, addr u64, type u8), then the
    // CRC-32 of everything before it.
    Trace t;
    t.append(rec(0x1000, 3));                              // load
    t.append(rec(0x2040, 7, AccessType::Store));           // store
    t.append(rec(0x7fffffffc0, 1, AccessType::Writeback)); // writeback
    t.append(rec(0xdeadbeef00, 0xFFFFFFFFu));
    writeTrace(t, tempPath());

    const std::string expected_hex =
        "47505452" "03000000" "0400000000000000"
        "03000000" "0010000000000000" "00"
        "07000000" "4020000000000000" "01"
        "01000000" "c0ffffff7f000000" "02"
        "ffffffff" "00efbeadde000000" "00"
        "1d96cc1e";
    std::ifstream in(tempPath(), std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>{}};
    std::string hex;
    for (unsigned char c : bytes) {
        static const char kDigits[] = "0123456789abcdef";
        hex.push_back(kDigits[c >> 4]);
        hex.push_back(kDigits[c & 0xf]);
    }
    EXPECT_EQ(bytes.size(), 16u + 4 * 13u + 4u);
    EXPECT_EQ(hex, expected_hex);

    const Trace u = readTrace(tempPath());
    ASSERT_EQ(u.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_TRUE(u[i] == t[i]) << i;
    EXPECT_EQ(u.instructions(), uint64_t{3 + 7 + 1} + 0xFFFFFFFFu);
    EXPECT_EQ(u.writes(), 2u);
}

TEST_F(TraceIoTest, LegacyV1AndV2FilesAreFatal)
{
    // v1 (no CRC) and v2 (a PC and a write flag per record) files are
    // not read: the version check fires before any record, and the
    // message names the version found.
    Trace t;
    t.append(rec(0x100, 2));
    t.append(rec(0x940, 5, AccessType::Store));
    writeTrace(t, tempPath());
    std::vector<char> bytes = fileBytes();
    for (const char version : {1, 2}) {
        bytes[4] = version;
        writeBytes(bytes);
        const std::string want = "unsupported trace version " +
                                 std::to_string(version) +
                                 " (only v3 is read)";
        EXPECT_EQ(readError(), want + " in " + tempPath());
    }
}

TEST_F(TraceIoTest, OutOfRangeTypeByteIsFatal)
{
    // A type byte past Writeback is corruption, not a Load, even when
    // the CRC footer is made to match it.
    Trace t;
    t.append(rec(0x100, 2));
    t.append(rec(0x940, 5, AccessType::Store));
    writeTrace(t, tempPath());
    std::vector<char> bytes = fileBytes();
    const size_t type_at = 16 + 13 + 12; // record 1's type byte
    ASSERT_EQ(bytes.size(), 16u + 2 * 13u + 4u);
    ASSERT_EQ(bytes[type_at], 1);
    for (const unsigned char type : {3, 255}) {
        bytes[type_at] = static_cast<char>(type);
        const uint32_t crc =
            robust::crc32(bytes.data(), bytes.size() - 4);
        std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof crc);
        writeBytes(bytes);
        EXPECT_EQ(readError(),
                  "trace file corrupt: record 1 has type byte " +
                      std::to_string(type) +
                      " (0 load, 1 store, 2 writeback): " + tempPath());
    }
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
