/**
 * @file
 * Tests for the fault-tolerance layer: CRC-32, atomic file
 * replacement, deterministic retry backoff, fault injection, graceful
 * shutdown and the checkpoint envelope.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "robust/atomic_io.hh"
#include "robust/checkpoint.hh"
#include "robust/fault_inject.hh"
#include "robust/shutdown.hh"

namespace gippr::robust
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory for one test. */
fs::path
scratchDir(const std::string &leaf)
{
    fs::path dir = fs::path(testing::TempDir()) / ("gippr_" + leaf);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** True when @p dir holds any leftover atomic-write temp file. */
bool
hasTempFiles(const fs::path &dir)
{
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().filename().string().find(".tmp.") !=
            std::string::npos)
            return true;
    return false;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(Crc32, KnownVector)
{
    // The canonical CRC-32 check value (IEEE 802.3, as in zlib).
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const std::string data = "the quick brown fox jumps over";
    uint32_t whole = crc32(data.data(), data.size());
    uint32_t part = crc32(data.data(), 10);
    part = crc32(data.data() + 10, data.size() - 10, part);
    EXPECT_EQ(part, whole);
}

TEST(AtomicWrite, RoundTripAndReplace)
{
    fs::path dir = scratchDir("atomic_rt");
    const std::string path = (dir / "artifact.json").string();
    writeFileAtomic(path, "first contents\n");
    EXPECT_EQ(readFileBytes(path), "first contents\n");
    writeFileAtomic(path, "second contents\n");
    EXPECT_EQ(readFileBytes(path), "second contents\n");
    EXPECT_FALSE(hasTempFiles(dir));
}

TEST(AtomicWrite, UnwritableDirectoryReportsError)
{
    EXPECT_THROW(writeFileAtomic(
                     "/nonexistent-gippr-dir/artifact.json", "x"),
                 std::runtime_error);
}

TEST(ReadFileBytes, MissingFileReportsError)
{
    EXPECT_THROW(readFileBytes("/nonexistent-gippr-dir/nope.bin"),
                 std::runtime_error);
}

TEST(FaultInjection, EveryFailureLeavesNoTornFile)
{
    fs::path dir = scratchDir("fault_sweep");
    const std::string path = (dir / "target.bin").string();
    writeFileAtomic(path, "old contents");

    const char *specs[] = {"open=1",  "write=1", "short_write=1",
                           "enospc=1", "rename=1", "fsync=1",
                           "close=1"};
    for (const char *spec : specs) {
        FaultInjector::instance().configure(spec);
        EXPECT_THROW(writeFileAtomic(path, "new contents"),
                     std::runtime_error)
            << "spec " << spec;
        FaultInjector::instance().reset();
        // The destination keeps its old contents whole; no temp file
        // survives the failure.
        EXPECT_EQ(slurp(path), "old contents") << "spec " << spec;
        EXPECT_FALSE(hasTempFiles(dir)) << "spec " << spec;
    }

    // Disarmed, the same write goes through.
    writeFileAtomic(path, "new contents");
    EXPECT_EQ(slurp(path), "new contents");
}

TEST(FaultInjection, FiresOnlyOnNthOccurrence)
{
    fs::path dir = scratchDir("fault_nth");
    const std::string path = (dir / "t.bin").string();
    // First write (one open) succeeds; second trips open=2.
    FaultInjector::instance().configure("open=2");
    writeFileAtomic(path, "a");
    EXPECT_THROW(writeFileAtomic(path, "b"), std::runtime_error);
    FaultInjector::instance().reset();
    EXPECT_EQ(slurp(path), "a");
}

TEST(FaultInjection, MalformedSpecRejected)
{
    EXPECT_THROW(FaultInjector::instance().configure("bogus=1"),
                 std::runtime_error);
    EXPECT_THROW(FaultInjector::instance().configure("open"),
                 std::runtime_error);
    EXPECT_THROW(FaultInjector::instance().configure("open=zero"),
                 std::runtime_error);
    EXPECT_THROW(FaultInjector::instance().configure("mmap=1"),
                 std::runtime_error);
    // Occurrence counts must be plain integers from 1 to 2^64 - 1.
    for (const char *spec :
         {"open=-1", "open=+2", "open=18446744073709551616", "open=0",
          "open=", "write=1,open=1x"}) {
        EXPECT_THROW(FaultInjector::instance().configure(spec),
                     std::runtime_error)
            << spec;
    }
    FaultInjector::instance().reset();
}

TEST(Retry, DeterministicJitterSchedule)
{
    const auto delaysFor = [](unsigned failures) {
        std::vector<unsigned> delays;
        RetryPolicy policy;
        policy.attempts = 3;
        policy.baseDelayMs = 10;
        policy.sleeper = [&](unsigned ms) { delays.push_back(ms); };
        unsigned calls = 0;
        bool ok = retryWithBackoff(policy, [&]() {
            return ++calls > failures;
        });
        EXPECT_EQ(ok, failures < policy.attempts);
        return delays;
    };

    std::vector<unsigned> first = delaysFor(2);
    std::vector<unsigned> second = delaysFor(2);
    ASSERT_EQ(first.size(), 2u);
    // Same policy, same seed: the jittered schedule replays exactly.
    EXPECT_EQ(first, second);
    // Exponential window: retry k waits in [base/2 * 2^(k-1), ...).
    EXPECT_GE(first[0], 5u);
    EXPECT_LT(first[0], 10u);
    EXPECT_GE(first[1], 10u);
    EXPECT_LT(first[1], 20u);

    // Exhaustion: attempts bounded, one sleep between each pair.
    EXPECT_EQ(delaysFor(99).size(), 2u);
    // Immediate success never sleeps.
    EXPECT_TRUE(delaysFor(0).empty());

    // Delays past UINT_MAX saturate instead of wrapping: a maximal
    // base from the second retry on, and the 10 ms base's doubling
    // from about the 30th.  The recording sleeper never sleeps.
    const auto longSchedule = [](unsigned base_ms) {
        std::vector<unsigned> delays;
        RetryPolicy policy;
        policy.attempts = 40;
        policy.baseDelayMs = base_ms;
        policy.sleeper = [&](unsigned ms) { delays.push_back(ms); };
        EXPECT_FALSE(retryWithBackoff(policy, [] { return false; }));
        return delays;
    };
    constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
    const std::vector<unsigned> huge = longSchedule(kMax);
    ASSERT_EQ(huge.size(), 39u);
    EXPECT_GE(huge[0], kMax / 2);
    for (size_t k = 1; k < huge.size(); ++k)
        EXPECT_EQ(huge[k], kMax) << k;
    const std::vector<unsigned> doubling = longSchedule(10);
    ASSERT_EQ(doubling.size(), 39u);
    for (size_t k = 1; k < doubling.size(); ++k)
        EXPECT_GE(doubling[k], doubling[k - 1]) << k;
    EXPECT_EQ(doubling.back(), kMax);
}

TEST(Retry, DefaultPolicyScheduleIsDeterministic)
{
    const auto schedule = [] {
        RetryPolicy policy = defaultRetryPolicy();
        std::vector<unsigned> delays;
        policy.sleeper = [&](unsigned ms) { delays.push_back(ms); };
        EXPECT_FALSE(retryWithBackoff(policy, []() { return false; }));
        return delays;
    };

    // The jitter is seeded: every call replays the same schedule.
    const std::vector<unsigned> dflt = schedule();
    EXPECT_EQ(dflt, schedule());
    ASSERT_EQ(dflt.size(), 2u); // default attempts = 3
    EXPECT_GE(dflt[0], 5u);     // base 10: first delay in [5,10)
    EXPECT_LT(dflt[0], 10u);
}

TEST(FaultInjection, ReadFaultFiresAndFileSurvives)
{
    fs::path dir = scratchDir("fault_read");
    const std::string path = (dir / "data.bin").string();
    writeFileAtomic(path, "payload");

    FaultInjector::instance().configure("read=1");
    EXPECT_THROW(readFileBytes(path), std::runtime_error);
    FaultInjector::instance().reset();
    // The injected EIO is a read-side fault: the file itself is whole.
    EXPECT_EQ(readFileBytes(path), "payload");
}

TEST(Shutdown, FlagLifecycle)
{
    ShutdownGuard::clear();
    EXPECT_FALSE(ShutdownGuard::requested());
    ShutdownGuard::requestShutdown();
    EXPECT_TRUE(ShutdownGuard::requested());
    ShutdownGuard::clear();
    EXPECT_FALSE(ShutdownGuard::requested());
}

TEST(Shutdown, SignalSetsFlagUnderGuard)
{
    ShutdownGuard::clear();
    {
        ShutdownGuard guard;
        EXPECT_FALSE(ShutdownGuard::requested());
        std::raise(SIGTERM);
        EXPECT_TRUE(ShutdownGuard::requested());
    }
    ShutdownGuard::clear();
}

TEST(ByteCodec, RoundTripAllTypes)
{
    ByteWriter w;
    w.u8(7);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.f64(1.0 / 3.0);
    w.str("hello");
    w.bytes({1, 2, 3});

    ByteReader r(w.data(), "test");
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    // Bit-exact round trip, not merely approximate.
    EXPECT_EQ(r.f64(), 1.0 / 3.0);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.bytes(), (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_TRUE(r.atEnd());
    r.expectEnd();
}

TEST(ByteCodec, TruncationAndTrailingBytesRejected)
{
    ByteWriter w;
    w.u64(42);
    ByteReader trunc(std::string_view(w.data()).substr(0, 4), "test");
    EXPECT_THROW(trunc.u64(), std::runtime_error);

    ByteReader leftover(w.data(), "test");
    leftover.u32();
    EXPECT_THROW(leftover.expectEnd(), std::runtime_error);
}

TEST(Envelope, RoundTrip)
{
    fs::path dir = scratchDir("envelope_rt");
    const std::string path = (dir / "ck.gpck").string();
    EXPECT_FALSE(checkpointExists(path));
    writeCheckpointFile(path, "test-kind", 3, "payload bytes");
    EXPECT_TRUE(checkpointExists(path));
    EXPECT_EQ(readCheckpointFile(path, "test-kind", 3),
              "payload bytes");
}

TEST(Envelope, RejectsCorruptionAndMismatches)
{
    fs::path dir = scratchDir("envelope_bad");
    const std::string path = (dir / "ck.gpck").string();
    writeCheckpointFile(path, "test-kind", 3, "payload bytes");

    // Wrong kind / wrong payload version.
    EXPECT_THROW(readCheckpointFile(path, "other-kind", 3),
                 std::runtime_error);
    EXPECT_THROW(readCheckpointFile(path, "test-kind", 4),
                 std::runtime_error);

    const std::string good = readFileBytes(path);

    // Flip one payload byte: checksum must catch it.
    std::string corrupt = good;
    corrupt.back() = static_cast<char>(corrupt.back() ^ 0x40);
    writeFileAtomic(path, corrupt);
    EXPECT_THROW(readCheckpointFile(path, "test-kind", 3),
                 std::runtime_error);

    // Truncate mid-payload.
    writeFileAtomic(path, good.substr(0, good.size() - 5));
    EXPECT_THROW(readCheckpointFile(path, "test-kind", 3),
                 std::runtime_error);

    // Truncate mid-header.
    writeFileAtomic(path, good.substr(0, 6));
    EXPECT_THROW(readCheckpointFile(path, "test-kind", 3),
                 std::runtime_error);

    // Bad magic.
    std::string bad_magic = good;
    bad_magic[0] = 'X';
    writeFileAtomic(path, bad_magic);
    EXPECT_THROW(readCheckpointFile(path, "test-kind", 3),
                 std::runtime_error);

    // Unsupported envelope version (bytes 4..7, little-endian).
    std::string bad_env = good;
    bad_env[4] = 99;
    writeFileAtomic(path, bad_env);
    EXPECT_THROW(readCheckpointFile(path, "test-kind", 3),
                 std::runtime_error);
}

} // namespace
} // namespace gippr::robust
