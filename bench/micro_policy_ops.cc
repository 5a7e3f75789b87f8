/**
 * @file
 * Operation-level microbenchmarks (google-benchmark).
 *
 * Quantifies the implementation-complexity argument of Sections 2.1.2
 * and 3.3: a PLRU/GIPPR update touches at most log2(k) tree bits while
 * a full-LRU stack update can move k positions; and whole-policy
 * access throughput for the main contenders.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common.hh"
#include "core/plru_tree.hh"
#include "core/vectors.hh"
#include "policies/recency_stack.hh"
#include "util/rng.hh"

using namespace gippr;

namespace
{

void
BM_PlruTreePromote(benchmark::State &state)
{
    const unsigned ways = static_cast<unsigned>(state.range(0));
    PlruTree tree(ways);
    Rng rng(1);
    for (auto _ : state) {
        tree.promoteMru(static_cast<unsigned>(rng.nextBounded(ways)));
        benchmark::DoNotOptimize(tree);
    }
}
BENCHMARK(BM_PlruTreePromote)->Arg(4)->Arg(16)->Arg(64);

void
BM_PlruTreeSetPosition(benchmark::State &state)
{
    const unsigned ways = static_cast<unsigned>(state.range(0));
    PlruTree tree(ways);
    Rng rng(2);
    for (auto _ : state) {
        tree.setPosition(static_cast<unsigned>(rng.nextBounded(ways)),
                         static_cast<unsigned>(rng.nextBounded(ways)));
        benchmark::DoNotOptimize(tree);
    }
}
BENCHMARK(BM_PlruTreeSetPosition)->Arg(4)->Arg(16)->Arg(64);

void
BM_PlruTreePosition(benchmark::State &state)
{
    const unsigned ways = static_cast<unsigned>(state.range(0));
    PlruTree tree(ways);
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tree.position(
            static_cast<unsigned>(rng.nextBounded(ways))));
    }
}
BENCHMARK(BM_PlruTreePosition)->Arg(4)->Arg(16)->Arg(64);

void
BM_RecencyStackMove(benchmark::State &state)
{
    const unsigned ways = static_cast<unsigned>(state.range(0));
    RecencyStack stack(ways);
    Rng rng(4);
    for (auto _ : state) {
        stack.moveTo(static_cast<unsigned>(rng.nextBounded(ways)),
                     static_cast<unsigned>(rng.nextBounded(ways)));
        benchmark::DoNotOptimize(stack);
    }
}
BENCHMARK(BM_RecencyStackMove)->Arg(4)->Arg(16)->Arg(64);

void
runCacheAccess(benchmark::State &state, const PolicyDef &def)
{
    CacheConfig cfg = CacheConfig::benchLlc();
    SetAssocCache cache(cfg, def.make(cfg));
    Rng rng(5);
    // Footprint 2x the cache so hits and misses both occur.
    const uint64_t blocks = 2 * cfg.sets() * cfg.assoc;
    for (auto _ : state) {
        uint64_t addr = rng.nextBounded(blocks) * cfg.blockBytes;
        benchmark::DoNotOptimize(
            cache.access(addr, AccessType::Load));
    }
}

void
BM_CacheAccessLru(benchmark::State &state)
{
    runCacheAccess(state, policyByName("LRU"));
}
BENCHMARK(BM_CacheAccessLru);

void
BM_CacheAccessPlru(benchmark::State &state)
{
    runCacheAccess(state, policyByName("PLRU"));
}
BENCHMARK(BM_CacheAccessPlru);

void
BM_CacheAccessGippr(benchmark::State &state)
{
    runCacheAccess(state,
                   gipprDef("GIPPR", local_vectors::gippr()));
}
BENCHMARK(BM_CacheAccessGippr);

void
BM_CacheAccessDgippr4(benchmark::State &state)
{
    runCacheAccess(state,
                   dgipprDef("4-DGIPPR", local_vectors::dgippr4()));
}
BENCHMARK(BM_CacheAccessDgippr4);

void
BM_CacheAccessDrrip(benchmark::State &state)
{
    runCacheAccess(state, policyByName("DRRIP"));
}
BENCHMARK(BM_CacheAccessDrrip);

void
BM_CacheAccessPdp(benchmark::State &state)
{
    runCacheAccess(state, policyByName("PDP"));
}
BENCHMARK(BM_CacheAccessPdp);

/**
 * Console reporter that also captures per-benchmark timings so the
 * run can be serialized through the shared RunReport path (google-
 * benchmark's own JSON writer is mutually exclusive with console
 * output and uses a different schema).
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Row
    {
        std::string name;
        double realNs;
        double cpuNs;
        double iterations;
    };

    std::vector<Row> rows;

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred) {
                continue;
            }
            rows.push_back({run.benchmark_name(),
                            run.GetAdjustedRealTime(),
                            run.GetAdjustedCPUTime(),
                            static_cast<double>(run.iterations)});
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace gippr::bench;

    Session session(argc, argv, "micro_policy_ops");

    // google-benchmark rejects flags it does not know, so strip the
    // session's --json before handing argv over.
    std::vector<char *> bench_argv;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            ++i; // skip the path argument too
            continue;
        }
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            continue;
        bench_argv.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_argv.data())) {
        return 1;
    }

    CapturingReporter reporter;
    {
        telemetry::ScopedTimer timer(&session.timings(), "benchmarks");
        benchmark::RunSpecifiedBenchmarks(&reporter);
    }
    benchmark::Shutdown();

    session.setConfig("llc", toJson(CacheConfig::benchLlc()));
    telemetry::ResultTable rt;
    rt.title = "micro_policy_ops";
    rt.metric = "ns";
    rt.columns = {"real_time_ns", "cpu_time_ns", "iterations"};
    for (const CapturingReporter::Row &row : reporter.rows)
        rt.rows.push_back(
            {row.name, {row.realNs, row.cpuNs, row.iterations}});
    session.report().addTable(std::move(rt));
    session.emit();
    return 0;
}
