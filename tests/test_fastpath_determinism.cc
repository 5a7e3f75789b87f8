/**
 * @file
 * Determinism tests for the sharded fast replay engine.
 *
 * The engine's contract is that sharding is an implementation detail:
 * any shard count must produce bit-identical ReplayStats (counter
 * banks, duel counters, leader misses, final winner), and two runs
 * with the same seed must produce byte-identical RunReport artifacts
 * once the timestamp is pinned.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/config.hh"
#include "core/vectors.hh"
#include "sim/fastpath/engine.hh"
#include "telemetry/report.hh"
#include "trace/trace.hh"
#include "util/rng.hh"

namespace gippr
{
namespace
{

CacheConfig
smallLlc()
{
    CacheConfig cfg;
    cfg.name = "llc";
    cfg.sizeBytes = 64 * 1024;
    cfg.assoc = 16;
    cfg.blockBytes = 64;
    return cfg;
}

std::vector<fastpath::ReplaySpec>
coreSpecs()
{
    return {fastpath::lruSpec(),
            fastpath::lipSpec(),
            fastpath::giplrSpec(local_vectors::giplr()),
            fastpath::plruSpec(),
            fastpath::gipprSpec(local_vectors::gippr()),
            fastpath::dgipprSpec(local_vectors::dgippr2()),
            fastpath::dgipprSpec(local_vectors::dgippr4())};
}

Trace
mixedStream(uint64_t n, uint64_t seed, const CacheConfig &cfg)
{
    Rng rng(seed);
    Trace trace;
    trace.reserve(n);
    const uint64_t block = cfg.blockBytes;
    const uint64_t blocks = cfg.sets() * cfg.assoc * 4;
    for (uint64_t i = 0; i < n; ++i) {
        MemRecord rec;
        rec.instGap = 1;
        rec.addr = rng.nextBounded(blocks) * block;
        if (rng.nextBool(0.1))
            rec.type = AccessType::Writeback;
        else if (rng.nextBool(0.25))
            rec.type = AccessType::Store;
        trace.append(rec);
    }
    return trace;
}

/** Deterministic RunReport built from one fast replay. */
std::string
reportFor(const Trace &trace, unsigned shards)
{
    const CacheConfig cfg = smallLlc();
    telemetry::RunReport report("bench", "determinism_probe");
    report.setTimestamp("2000-01-01T00:00:00Z");
    report.setConfig("shards",
                     telemetry::JsonValue(uint64_t{shards}));
    const fastpath::FastReplayEngine engine(shards);
    telemetry::ResultTable table;
    table.title = "counters";
    table.metric = "count";
    table.columns = {"hits", "demand_misses", "evictions",
                     "writebacks"};
    for (const fastpath::ReplaySpec &spec : coreSpecs()) {
        const fastpath::ReplayStats stats =
            engine.replay(spec, cfg, trace, trace.size() / 3);
        table.rows.push_back(
            {spec.name(),
             {static_cast<double>(stats.measured.hits),
              static_cast<double>(stats.measured.demandMisses),
              static_cast<double>(stats.measured.evictions),
              static_cast<double>(stats.measured.writebacks)}});
    }
    report.addTable(std::move(table));
    return report.toJson().dump(2);
}

} // namespace

TEST(FastpathDeterminism, ShardCountNeverChangesAnyCounter)
{
    const CacheConfig cfg = smallLlc();
    const Trace trace = mixedStream(120'000, 0xd373, cfg);
    const size_t warmup = trace.size() / 3;
    for (const fastpath::ReplaySpec &spec : coreSpecs()) {
        const fastpath::FastReplayEngine one(1);
        const fastpath::ReplayStats want =
            one.replay(spec, cfg, trace, warmup);
        for (unsigned shards : {2u, 4u, 16u}) {
            const fastpath::FastReplayEngine engine(shards);
            const fastpath::ReplayStats got =
                engine.replay(spec, cfg, trace, warmup);
            EXPECT_EQ(want, got)
                << spec.name() << " with " << shards << " shards:\n"
                << want.toString() << "\nvs\n" << got.toString();
        }
    }
}

TEST(FastpathDeterminism, ShardCountBeyondSetsClamps)
{
    CacheConfig cfg;
    cfg.sizeBytes = 16 * 1024; // 16 sets at 16 ways
    cfg.assoc = 16;
    cfg.blockBytes = 64;
    const Trace trace = mixedStream(30'000, 0xc1a4, cfg);
    const fastpath::FastReplayEngine one(1);
    const fastpath::FastReplayEngine many(64); // > sets
    for (const fastpath::ReplaySpec &spec : coreSpecs()) {
        EXPECT_EQ(one.replay(spec, cfg, trace, 0),
                  many.replay(spec, cfg, trace, 0))
            << spec.name();
    }
}

TEST(FastpathDeterminism, RepeatedRunsYieldByteIdenticalReports)
{
    const Trace trace = mixedStream(60'000, 0x5eed, smallLlc());
    const std::string first = reportFor(trace, 4);
    const std::string second = reportFor(trace, 4);
    EXPECT_EQ(first, second);
    // And the artifact is shard-invariant, not merely run-invariant
    // (the "shards" config key is the only allowed difference).
    std::string one = reportFor(trace, 1);
    std::string four = first;
    const auto strip = [](std::string &s) {
        const size_t at = s.find("\"shards\"");
        ASSERT_NE(at, std::string::npos);
        const size_t end = s.find('\n', at);
        s.erase(at, end - at);
    };
    strip(one);
    strip(four);
    EXPECT_EQ(one, four);
}

TEST(FastpathDeterminism, ZeroShardsResolvesToHardwareThreads)
{
    // shards == 0 resolves to the hardware concurrency (at least 1).
    EXPECT_GE(fastpath::FastReplayEngine(0).shards(), 1u);
}

} // namespace gippr
