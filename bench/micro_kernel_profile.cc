/**
 * @file
 * Microarchitectural profile of the replay paths: for each policy
 * family, 8 genomes replay the suite's LLC traces once per-genome
 * (replay()) and once batched (replayMany(), on the kernel this host
 * dispatches), each pass bracketed with hardware counters
 * (perf_event_open: instructions, cycles, L1d/LLC read misses) and
 * wall clock, and the per-model-access attribution lands in a
 * "profile" RunReport whose config names the dispatched kernel
 * (`replay_kernel`).  On hosts without a PMU (most containers and
 * VMs) the counter columns read zero, the config block says so
 * (`perf_counters_available: false`), and the wall-clock columns
 * still stand — the artifact never silently mixes the two.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "core/vectors.hh"
#include "perf_counters.hh"
#include "sim/fastpath/engine.hh"

using namespace gippr;
using namespace gippr::bench;

namespace
{

struct NamedTrace
{
    std::string workload;
    std::shared_ptr<const Trace> trace;
    size_t warmup;
};

/** Genomes per replayMany batch: two quads for the paired kernel. */
constexpr size_t kProfileBatch = 8;

struct Measurement
{
    double seconds = 0.0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t l1dMisses = 0;
    uint64_t llcMisses = 0;
};

/** One pass of @p spec's genomes over every trace, batched through
 *  replayMany() or one replay() per genome. */
Measurement
onePass(PerfCounterSet &pcs, const fastpath::ReplayEngine &engine,
        bool batched, const fastpath::ReplaySpec &spec,
        const CacheConfig &llc, const std::vector<NamedTrace> &traces)
{
    const std::vector<fastpath::ReplaySpec> specs(kProfileBatch, spec);
    Measurement m;
    pcs.start();
    const auto start = std::chrono::steady_clock::now();
    for (const NamedTrace &t : traces) {
        if (batched) {
            engine.replayMany(specs, llc, *t.trace, t.warmup);
        } else {
            for (const fastpath::ReplaySpec &one : specs)
                engine.replay(one, llc, *t.trace, t.warmup);
        }
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    pcs.stop();
    m.seconds = dt.count();
    m.instructions = pcs.value("instructions");
    m.cycles = pcs.value("cycles");
    m.l1dMisses = pcs.value("l1d_read_miss");
    m.llcMisses = pcs.value("llc_read_miss");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Session session(argc, argv, "micro_kernel_profile", "profile");
    Scale scale = resolveScale();
    banner("micro_kernel_profile: perf-counter attribution per replay "
           "path",
           "per-genome vs batched replay (infrastructure, not a paper "
           "figure)");

    SyntheticSuite suite(suiteParams(scale));
    SystemParams sys = systemParams();
    session.recordScale(scale);

    std::vector<NamedTrace> traces;
    uint64_t total_accesses = 0;
    for (const WorkloadSpec &spec : suite.specs()) {
        const auto entries =
            session.traceCache().get(spec, sys.hier, &session.timings());
        for (const LlcTraceCache::Entry &entry : *entries) {
            traces.push_back({spec.name, entry.demandTrace,
                              entry.demandTrace->size() / 3});
            total_accesses += entry.demandTrace->size();
        }
    }
    // Every batched genome replays every record.
    const uint64_t model_accesses = total_accesses * kProfileBatch;
    std::printf("profiling %llu model-accesses per (path, policy) "
                "cell (%zu traces x %zu genomes, batched kernel %s)\n\n",
                static_cast<unsigned long long>(model_accesses),
                traces.size(), kProfileBatch,
                fastpath::replayKernelName(fastpath::activeReplayKernel()));
    session.setConfig("trace_accesses",
                      telemetry::JsonValue(total_accesses));
    session.setConfig("batch_genomes",
                      telemetry::JsonValue(uint64_t{kProfileBatch}));

    PerfCounterSet pcs;
    session.setConfig("perf_counters_available",
                      telemetry::JsonValue(pcs.available()));
    if (!pcs.available())
        note("no PMU access on this host (perf_event_open failed): "
             "counter columns are zero, wall-clock attribution only");

    const fastpath::FastReplayEngine fast(1);
    const std::vector<fastpath::ReplaySpec> specs = {
        fastpath::lruSpec(),
        fastpath::giplrSpec(local_vectors::giplr()),
        fastpath::plruSpec(),
        fastpath::gipprSpec(local_vectors::gippr()),
    };
    const int reps = scale.quick ? 2 : 3;
    Table table({"path", "policy", "Macc_s", "inst_per_acc",
                 "cyc_per_acc", "l1d_mpka", "llc_mpka"});
    for (const bool batched : {false, true}) {
        for (const fastpath::ReplaySpec &spec : specs) {
            // Best-of-N wall clock, with the counters of that rep.
            Measurement best;
            for (int r = 0; r < reps; ++r) {
                const Measurement m = onePass(pcs, fast, batched, spec,
                                              sys.hier.llc, traces);
                if (r == 0 || m.seconds < best.seconds)
                    best = m;
            }
            const double acc = static_cast<double>(model_accesses);
            table.newRow()
                .add(batched ? "replayMany" : "replay")
                .add(spec.name())
                .add(acc / 1e6 / best.seconds, 2)
                .add(static_cast<double>(best.instructions) / acc, 2)
                .add(static_cast<double>(best.cycles) / acc, 2)
                .add(1000.0 * static_cast<double>(best.l1dMisses) /
                         acc,
                     1)
                .add(1000.0 * static_cast<double>(best.llcMisses) /
                         acc,
                     1);
        }
    }
    emitTable(table, "kernel_profile");
    session.addTable("kernel_profile", "per_access_attribution", table);
    note("inst/cyc per model-access attribute batching gains to "
         "retired work vs stalls; L1d/LLC misses-per-kiloaccess "
         "separate locality effects (bucketed set slices) from "
         "memory-bandwidth ones (chunk buffer re-streams)");
    session.emit();
    return 0;
}
