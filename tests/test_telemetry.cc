/**
 * @file
 * Tests for the telemetry subsystem: metric instruments, JSON model,
 * run reports (round-trip + golden schema), phase timers, and the
 * hardened trace reader error paths that telemetry-driven artifact
 * pipelines rely on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <thread>

#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/progress.hh"
#include "telemetry/report.hh"
#include "telemetry/timer.hh"
#include "trace/trace_io.hh"

namespace gippr
{
namespace
{

using telemetry::FixedHistogram;
using telemetry::JsonValue;
using telemetry::MetricRegistry;
using telemetry::PhaseTimings;
using telemetry::RunReport;
using telemetry::ScopedTimer;

// ---------------------------------------------------------------- metrics

TEST(MetricRegistry, CounterSemantics)
{
    MetricRegistry reg;
    telemetry::Counter &c = reg.counter("hits");
    EXPECT_EQ(c.value(), 0u);
    c.increment();
    c.increment(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name returns the same instrument.
    EXPECT_EQ(&reg.counter("hits"), &c);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistry, GaugeKeepsLastValue)
{
    MetricRegistry reg;
    telemetry::Gauge &g = reg.gauge("winner");
    g.set(3.0);
    g.set(-1.5);
    EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(MetricRegistry, HistogramBucketing)
{
    MetricRegistry reg;
    FixedHistogram &h = reg.histogram("lat", {1.0, 10.0, 100.0});
    h.observe(0.5);   // bucket 0 (<= 1)
    h.observe(1.0);   // bucket 0 (bound inclusive)
    h.observe(5.0);   // bucket 1
    h.observe(100.0); // bucket 2
    h.observe(1e6);   // overflow bucket
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u); // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
}

TEST(MetricRegistry, HistogramReboundsRejected)
{
    MetricRegistry reg;
    reg.histogram("lat", {1.0, 2.0});
    EXPECT_NO_THROW(reg.histogram("lat", {1.0, 2.0}));
    EXPECT_THROW(reg.histogram("lat", {1.0, 3.0}), std::runtime_error);
}

TEST(MetricRegistry, ConcurrentIncrementStress)
{
    MetricRegistry reg;
    telemetry::Counter &c = reg.counter("stress");
    FixedHistogram &h = reg.histogram("hist", {0.5});
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&]() {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                c.increment();
                h.observe(1.0);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    EXPECT_EQ(h.bucketCount(1), kThreads * kPerThread);
    EXPECT_DOUBLE_EQ(h.sum(),
                     static_cast<double>(kThreads * kPerThread));
}

TEST(MetricRegistry, ConcurrentLookupStress)
{
    MetricRegistry reg;
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&reg]() {
            for (int i = 0; i < 500; ++i)
                reg.counter("shared." + std::to_string(i % 10))
                    .increment();
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(reg.size(), 10u);
    uint64_t total = 0;
    for (int i = 0; i < 10; ++i)
        total += reg.counter("shared." + std::to_string(i)).value();
    EXPECT_EQ(total, kThreads * 500u);
}

TEST(MetricRegistry, SnapshotShape)
{
    MetricRegistry reg;
    reg.counter("c").increment(7);
    reg.gauge("g").set(2.5);
    reg.histogram("h", {1.0}).observe(0.25);
    JsonValue snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("c").asNumber(), 7.0);
    EXPECT_DOUBLE_EQ(snap.at("g").asNumber(), 2.5);
    const JsonValue &h = snap.at("h");
    EXPECT_DOUBLE_EQ(h.at("bounds").at(0).asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(h.at("counts").at(0).asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(h.at("count").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(h.at("sum").asNumber(), 0.25);
}

// ------------------------------------------------------------------ json

TEST(Json, ScalarRoundTrip)
{
    EXPECT_EQ(JsonValue::parse("true").asBool(), true);
    EXPECT_EQ(JsonValue::parse("null").isNull(), true);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-12.5e2").asNumber(), -1250.0);
    EXPECT_EQ(JsonValue::parse("\"a\\nb\\u0041\"").asString(), "a\nbA");
}

TEST(Json, IntegersPrintWithoutExponent)
{
    EXPECT_EQ(JsonValue(uint64_t{123456789}).dump(0), "123456789");
    EXPECT_EQ(JsonValue(0).dump(0), "0");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    JsonValue obj = JsonValue::object();
    obj.set("zeta", JsonValue(1));
    obj.set("alpha", JsonValue(2));
    obj.set("mid", JsonValue(3));
    EXPECT_EQ(obj.dump(0), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
    obj.set("zeta", JsonValue(9)); // overwrite keeps position
    EXPECT_EQ(obj.dump(0), "{\"zeta\":9,\"alpha\":2,\"mid\":3}");
}

TEST(Json, NestedRoundTrip)
{
    const std::string doc =
        "{\"a\":[1,2,{\"b\":\"x\\\"y\"}],\"c\":{\"d\":null,"
        "\"e\":false}}";
    JsonValue v = JsonValue::parse(doc);
    EXPECT_EQ(v.dump(0), doc);
    // Pretty form parses back to the same compact form.
    EXPECT_EQ(JsonValue::parse(v.dump(2)).dump(0), doc);
}

TEST(Json, MalformedInputRejected)
{
    EXPECT_THROW(JsonValue::parse("{\"a\":}"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("[1,2"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("1 2"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
}

// ----------------------------------------------------------------- timer

TEST(PhaseTimings, AccumulatesAcrossTimers)
{
    PhaseTimings timings;
    {
        ScopedTimer t(&timings, "phase");
    }
    {
        ScopedTimer t(&timings, "phase");
    }
    auto phases = timings.phases();
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].name, "phase");
    EXPECT_EQ(phases[0].count, 2u);
    EXPECT_GE(phases[0].seconds, 0.0);
}

TEST(PhaseTimings, NullSinkIsInert)
{
    ScopedTimer t(nullptr, "nothing");
    EXPECT_GE(t.elapsed(), 0.0);
    t.stop(); // must not crash
}

TEST(PhaseTimings, StopDetaches)
{
    PhaseTimings timings;
    ScopedTimer t(&timings, "once");
    t.stop();
    t.stop(); // second stop is a no-op
    EXPECT_EQ(timings.phases().size(), 1u);
    EXPECT_EQ(timings.phases()[0].count, 1u);
}

// ---------------------------------------------------------------- report

/** A small fully-deterministic report used by the schema tests. */
RunReport
makeReport()
{
    RunReport report("experiment", "unit");
    report.setTimestamp("2026-01-02T03:04:05Z");
    report.setConfig("threads", JsonValue(uint64_t{4}));
    report.setConfig("policy", JsonValue("LRU"));
    telemetry::ResultTable table;
    table.title = "t";
    table.metric = "MPKI";
    table.columns = {"LRU", "GIPPR"};
    table.rows.push_back({"w0", {1.5, 1.25}});
    table.rows.push_back({"w1", {2.0, 1.0}});
    report.addTable(std::move(table));
    return report;
}

TEST(RunReport, JsonRoundTrip)
{
    PhaseTimings timings;
    {
        ScopedTimer t(&timings, "replay");
    }
    MetricRegistry reg;
    reg.counter("llc.LRU.hits").increment(10);

    RunReport report = makeReport();
    report.setPhases(timings);
    report.setMetrics(reg);

    JsonValue parsed = JsonValue::parse(report.toJson().dump(2));
    EXPECT_EQ(parsed.at("schema").asString(), RunReport::kSchemaName);
    EXPECT_DOUBLE_EQ(parsed.at("version").asNumber(),
                     RunReport::kSchemaVersion);
    EXPECT_EQ(parsed.at("kind").asString(), "experiment");
    EXPECT_EQ(parsed.at("name").asString(), "unit");
    EXPECT_EQ(parsed.at("timestamp").asString(), "2026-01-02T03:04:05Z");
    EXPECT_DOUBLE_EQ(parsed.at("config").at("threads").asNumber(), 4.0);
    const JsonValue &t = parsed.at("results").at(0);
    EXPECT_EQ(t.at("title").asString(), "t");
    EXPECT_EQ(t.at("metric").asString(), "MPKI");
    EXPECT_EQ(t.at("columns").at(1).asString(), "GIPPR");
    EXPECT_EQ(t.at("rows").at(1).at("workload").asString(), "w1");
    EXPECT_DOUBLE_EQ(t.at("rows").at(0).at("values").at(1).asNumber(),
                     1.25);
    EXPECT_EQ(parsed.at("phases").at(0).at("name").asString(), "replay");
    EXPECT_DOUBLE_EQ(parsed.at("metrics").at("llc.LRU.hits").asNumber(),
                     10.0);
}

TEST(RunReport, WriteFileRoundTrip)
{
    RunReport report = makeReport();
    std::string path = ::testing::TempDir() + "gippr_report.json";
    report.writeFile(path);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    EXPECT_EQ(JsonValue::parse(text).dump(0),
              report.toJson().dump(0));
}

/**
 * Golden-schema lock: this is the exact serialized form of version 1.
 * If this test fails, the artifact format changed — either revert the
 * change or bump RunReport::kSchemaVersion and update this golden
 * (downstream artifact consumers key off the version field).
 */
TEST(RunReport, GoldenSchemaV1)
{
    const char *golden = "{"
                         "\"schema\":\"gippr-run-report\","
                         "\"version\":1,"
                         "\"kind\":\"experiment\","
                         "\"name\":\"unit\","
                         "\"timestamp\":\"2026-01-02T03:04:05Z\","
                         "\"config\":{\"threads\":4,\"policy\":\"LRU\"},"
                         "\"results\":[{"
                         "\"title\":\"t\","
                         "\"metric\":\"MPKI\","
                         "\"columns\":[\"LRU\",\"GIPPR\"],"
                         "\"rows\":["
                         "{\"workload\":\"w0\",\"values\":[1.5,1.25]},"
                         "{\"workload\":\"w1\",\"values\":[2,1]}"
                         "]}],"
                         "\"phases\":[],"
                         "\"metrics\":{}"
                         "}";
    EXPECT_EQ(makeReport().toJson().dump(0), golden);
}

TEST(RunReport, TimestampStampedWhenUnset)
{
    RunReport report("bench", "b");
    std::string ts = report.toJson().at("timestamp").asString();
    // "YYYY-MM-DDTHH:MM:SSZ"
    ASSERT_EQ(ts.size(), 20u);
    EXPECT_EQ(ts[4], '-');
    EXPECT_EQ(ts[10], 'T');
    EXPECT_EQ(ts.back(), 'Z');
}

// -------------------------------------------------------------- progress

TEST(Progress, StreamSinkFormatsLine)
{
    std::string path = ::testing::TempDir() + "gippr_progress.txt";
    std::FILE *f = std::fopen(path.c_str(), "w+b");
    ASSERT_NE(f, nullptr);
    telemetry::StreamProgressSink sink(f);
    sink.onProgress({"evolve", 3, 12, 1.0421, 2.31});
    std::fflush(f);
    std::rewind(f);
    char buf[256] = {0};
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    std::fclose(f);
    std::remove(path.c_str());
    std::string line(buf);
    EXPECT_NE(line.find("evolve"), std::string::npos);
    EXPECT_NE(line.find("3/12"), std::string::npos);
    EXPECT_NE(line.find("1.0421"), std::string::npos);
}

// -------------------------------------------------- trace reader hardening

/** Write @p bytes to a temp file and return its path. */
std::string
writeBytes(const std::string &name, const std::string &bytes)
{
    std::string path = ::testing::TempDir() + name;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (!bytes.empty()) {
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
    return path;
}

/** A valid serialized trace with @p records records. */
std::string
validTraceBytes(uint64_t records)
{
    Trace t;
    for (uint64_t i = 0; i < records; ++i) {
        MemRecord r;
        r.addr = 0x1000 + 64 * i;
        t.append(r);
    }
    // Unique per test: ctest runs each discovered test as its own
    // process in parallel, and a shared scratch name races (one
    // process removes the file while another is reading it back).
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string path = ::testing::TempDir() + "gippr_valid_" +
                       info->name() + ".gptr";
    writeTrace(t, path);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string bytes;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    return bytes;
}

TEST(TraceIo, RoundTripStillWorks)
{
    std::string path =
        writeBytes("gippr_roundtrip.gptr", validTraceBytes(3));
    Trace t = readTrace(path);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.records()[2].addr, 0x1000u + 128u);
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedHeaderRejected)
{
    std::string bytes = validTraceBytes(1).substr(0, 10);
    std::string path = writeBytes("gippr_trunc_header.gptr", bytes);
    try {
        readTrace(path);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedRecordsRejected)
{
    std::string bytes = validTraceBytes(4);
    bytes.resize(bytes.size() - 5); // chop into the last record
    std::string path = writeBytes("gippr_trunc_records.gptr", bytes);
    try {
        readTrace(path);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("truncated"), std::string::npos);
        EXPECT_NE(msg.find("4 records"), std::string::npos);
        EXPECT_NE(msg.find(path), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, OverflowingRecordCountRejected)
{
    std::string bytes = validTraceBytes(1);
    // Overwrite the u64 record count (bytes 8..15) with UINT64_MAX,
    // which would overflow any expected-size computation.
    for (size_t i = 8; i < 16; ++i)
        bytes[i] = static_cast<char>(0xff);
    std::string path = writeBytes("gippr_overflow.gptr", bytes);
    try {
        readTrace(path);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("overflows"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, TrailingGarbageRejected)
{
    std::string bytes = validTraceBytes(2) + "garbage";
    std::string path = writeBytes("gippr_trailing.gptr", bytes);
    try {
        readTrace(path);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("trailing"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, BadMagicRejected)
{
    std::string bytes = validTraceBytes(1);
    bytes[0] = 'X';
    std::string path = writeBytes("gippr_magic.gptr", bytes);
    EXPECT_THROW(readTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

} // namespace
} // namespace gippr
