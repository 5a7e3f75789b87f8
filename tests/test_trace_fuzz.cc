/**
 * @file
 * Fuzz-style robustness tests for the binary trace reader and the
 * replay engines' edge inputs.
 *
 * The reader's contract: malformed files — truncated at ANY byte
 * offset, wrong magic, unknown version, record counts that overflow
 * the file, trailing garbage, a type byte outside AccessType — raise
 * std::runtime_error naming the path, and never crash or return a
 * silently partial trace.  The
 * engines' contract: degenerate traces (empty, duplicate-heavy,
 * max-address records) replay cleanly and identically on both
 * backends.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/config.hh"
#include "core/vectors.hh"
#include "robust/fault_inject.hh"
#include "sim/fastpath/engine.hh"
#include "sim/select/engine.hh"
#include "sim/select/select.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "util/rng.hh"
#include "workloads/suite.hh"

namespace gippr
{
namespace
{

std::string
tempPath(const std::string &leaf)
{
    return testing::TempDir() + leaf;
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

Trace
sampleTrace(size_t n)
{
    Rng rng(0xf022);
    Trace trace;
    for (size_t i = 0; i < n; ++i) {
        MemRecord rec;
        rec.instGap = 1 + static_cast<uint32_t>(rng.nextBounded(3));
        rec.addr = rng.nextBounded(1 << 20) * 64;
        if (rng.nextBool(0.3))
            rec.type = AccessType::Store;
        trace.append(rec);
    }
    return trace;
}

CacheConfig
tinyLlc()
{
    CacheConfig cfg;
    cfg.sizeBytes = 16 * 1024;
    cfg.assoc = 16;
    cfg.blockBytes = 64;
    return cfg;
}

} // namespace

TEST(TraceFuzz, EveryTruncationPrefixErrorsCleanly)
{
    const std::string path = tempPath("trunc.gptr");
    writeTrace(sampleTrace(12), path);
    const std::vector<char> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 16u);

    // A round-trip of the intact file works...
    EXPECT_EQ(readTrace(path).size(), 12u);

    // ...and every strict prefix is rejected, never crashes.
    const std::string cut = tempPath("trunc_cut.gptr");
    for (size_t len = 0; len < bytes.size(); ++len) {
        writeAll(cut,
                 std::vector<char>(bytes.begin(),
                                   bytes.begin() +
                                       static_cast<ptrdiff_t>(len)));
        EXPECT_THROW(readTrace(cut), std::runtime_error)
            << "prefix of " << len << " bytes was accepted";
    }
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(TraceFuzz, TrailingGarbageRejected)
{
    const std::string path = tempPath("trailing.gptr");
    writeTrace(sampleTrace(5), path);
    std::vector<char> bytes = readAll(path);
    bytes.push_back('\0');
    writeAll(path, bytes);
    EXPECT_THROW(readTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFuzz, BadMagicVersionAndOverflowingCountRejected)
{
    const std::string path = tempPath("header.gptr");
    writeTrace(sampleTrace(3), path);
    const std::vector<char> good = readAll(path);

    std::vector<char> bad_magic = good;
    bad_magic[0] = 'X';
    writeAll(path, bad_magic);
    EXPECT_THROW(readTrace(path), std::runtime_error);

    std::vector<char> bad_version = good;
    bad_version[4] = 99;
    writeAll(path, bad_version);
    EXPECT_THROW(readTrace(path), std::runtime_error);

    // Record count far beyond the file size (and near UINT64_MAX, so
    // a naive count * record_size computation would overflow).
    std::vector<char> bad_count = good;
    for (size_t i = 8; i < 16; ++i)
        bad_count[i] = static_cast<char>(0xff);
    writeAll(path, bad_count);
    EXPECT_THROW(readTrace(path), std::runtime_error);

    // A type byte past Writeback in any record (13-byte records after
    // the 16-byte header, type last) is rejected as that record's.
    for (size_t record = 0; record < 3; ++record) {
        for (const unsigned char type : {3, 0x80, 0xff}) {
            std::vector<char> bad_type = good;
            bad_type[16 + 13 * record + 12] = static_cast<char>(type);
            writeAll(path, bad_type);
            try {
                readTrace(path);
                ADD_FAILURE() << "type " << unsigned{type} << " in record "
                              << record << " was accepted";
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "record " + std::to_string(record) +
                              " has type byte " + std::to_string(type)),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    std::remove(path.c_str());
}

TEST(TraceFuzz, PayloadBitFlipCaughtByChecksum)
{
    // The footer CRC must catch single-byte corruption anywhere in
    // the record payload — damage the reader's size checks alone
    // cannot see.
    const std::string path = tempPath("bitflip.gptr");
    writeTrace(sampleTrace(16), path);
    const std::vector<char> good = readAll(path);
    ASSERT_GT(good.size(), 24u);

    // Flip one bit in a handful of payload offsets (past the 16-byte
    // header, before the 4-byte footer).
    for (size_t offset : {size_t(16), size_t(24), good.size() / 2,
                          good.size() - 5}) {
        std::vector<char> corrupt = good;
        corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
        writeAll(path, corrupt);
        EXPECT_THROW(readTrace(path), std::runtime_error)
            << "flip at offset " << offset << " was accepted";
    }

    writeAll(path, good);
    EXPECT_EQ(readTrace(path).size(), 16u);
    std::remove(path.c_str());
}

TEST(TraceFuzz, MissingFileRejected)
{
    EXPECT_THROW(readTrace(tempPath("does_not_exist.gptr")),
                 std::runtime_error);
}

TEST(TraceFuzz, InjectedReadFaultErrorsCleanly)
{
    // A mid-file read(2)/fread(3) failure (flaky NFS, dying disk) must
    // surface as a clean runtime_error from the reader, never
    // a partial trace.
    const std::string path = tempPath("readfault.gptr");
    writeTrace(sampleTrace(8), path);

    for (const char *spec : {"read=1", "read=2"}) {
        robust::FaultInjector::instance().configure(spec);
        EXPECT_THROW(readTrace(path), std::runtime_error)
            << "spec " << spec;
        robust::FaultInjector::instance().reset();
    }
    EXPECT_EQ(readTrace(path).size(), 8u);
    std::remove(path.c_str());
}

TEST(TraceFuzz, EmptyTraceReplaysToZeroStatsOnBothBackends)
{
    const Trace empty;
    const CacheConfig cfg = tinyLlc();
    const fastpath::ScalarReplayEngine scalar;
    const fastpath::FastReplayEngine fast(4);
    for (const auto &spec :
         {fastpath::lruSpec(), fastpath::plruSpec(),
          fastpath::gipprSpec(local_vectors::gippr()),
          fastpath::dgipprSpec(local_vectors::dgippr2())}) {
        const fastpath::ReplayStats a =
            scalar.replay(spec, cfg, empty, 0);
        const fastpath::ReplayStats b = fast.replay(spec, cfg, empty, 0);
        EXPECT_EQ(a, b) << spec.name();
        EXPECT_EQ(a.total.accesses, 0u);
        EXPECT_EQ(a.measured.accesses, 0u);
    }
}

TEST(TraceFuzz, ZeroLengthSimpointMaterializesAndReplays)
{
    // A simpoint spec asking for zero accesses must produce an empty
    // trace, not crash the generator or the replay path.
    SuiteParams params;
    params.llcBlocks = 256;
    params.accessesPerSimpoint = 0;
    SyntheticSuite suite(params);
    const Workload w =
        SyntheticSuite::materialize(suite.spec("stream_pure"));
    ASSERT_FALSE(w.simpoints().empty());
    for (const Simpoint &sp : w.simpoints())
        EXPECT_EQ(sp.trace->size(), 0u);
}

TEST(TraceFuzz, DuplicateAndMaxAddressRecordsReplayIdentically)
{
    Trace trace;
    // Degenerate stream: one duplicated block, UINT64_MAX addresses,
    // interleaved writebacks.
    for (int i = 0; i < 2000; ++i) {
        MemRecord rec;
        rec.instGap = 1;
        switch (i % 5) {
          case 0:
            rec.addr = 0x1000;
            break;
          case 1:
            rec.addr = UINT64_MAX;
            break;
          case 2:
            rec.addr = UINT64_MAX - 64;
            rec.type = AccessType::Writeback; // of the max-address region
            break;
          case 3:
            rec.addr = 0x1000;
            rec.type = AccessType::Store;
            break;
          default:
            rec.addr = static_cast<uint64_t>(i) * 64;
            break;
        }
        trace.append(rec);
    }
    const CacheConfig cfg = tinyLlc();
    const fastpath::ScalarReplayEngine scalar;
    const fastpath::FastReplayEngine fast(4);
    for (const auto &spec :
         {fastpath::lruSpec(), fastpath::lipSpec(),
          fastpath::plruSpec(),
          fastpath::gipprSpec(local_vectors::gippr()),
          fastpath::dgipprSpec(local_vectors::dgippr4())}) {
        EXPECT_EQ(scalar.replay(spec, cfg, trace, 500),
                  fast.replay(spec, cfg, trace, 500))
            << spec.name();
    }
}

TEST(TraceFuzz, PhaseShiftSelectEdgeGeometryMatchesAcrossBackends)
{
    // Phase-shift family traces through the policy selector under
    // adversarial epoch/warmup geometry: an epoch of 1 access (a
    // bandit decision at every record), an epoch longer than the
    // whole trace (one partial epoch, no decision at all), an odd
    // length that never divides the trace, warmup 0 and warmup ==
    // trace size.  Every combination must replay bit-identically on
    // the scalar and fastpath backends.
    SuiteParams params;
    params.llcBlocks = 256; // scaled to tinyLlc()
    params.accessesPerSimpoint = 3000;
    params.baseSeed = 0x5eed;
    const CacheConfig cfg = tinyLlc();
    const auto lib = select::parseLibrary("LRU,LIP,GIPPR");
    for (const WorkloadSpec &spec : phaseShiftFamily(params)) {
        if (spec.name != "ps_quad" && spec.name != "ps_calm_storm")
            continue;
        const Workload w = SyntheticSuite::materialize(spec);
        const auto &trace = *w.simpoints().front().trace;
        for (const uint64_t epoch :
             {uint64_t{1}, uint64_t{257}, uint64_t{1} << 20}) {
            for (const size_t warmup :
                 {size_t{0}, trace.size() / 3, trace.size()}) {
                select::SelectConfig scfg;
                scfg.epochLength = epoch;
                const select::SelectResult fast_res =
                    select::runSelect(lib, scfg, cfg, trace, warmup,
                                      select::Backend::Fast);
                const select::SelectResult scalar_res =
                    select::runSelect(lib, scfg, cfg, trace, warmup,
                                      select::Backend::Scalar);
                EXPECT_EQ(fast_res, scalar_res)
                    << spec.name << " epoch=" << epoch
                    << " warmup=" << warmup;
            }
        }
    }
}

} // namespace gippr
