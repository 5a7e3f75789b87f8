/**
 * @file
 * GA evaluation throughput: genomes evaluated per second when the
 * fitness function replays one genome at a time (batch width 1, the
 * per-genome fast path) vs the batched multi-genome kernel that
 * streams each LLC trace once for the whole group (width 32), per
 * family, at population sizes 1/8/32.
 *
 * The memo cache is disabled so every timed pass pays its replays,
 * and both widths are checked value-identical before any wall-clock
 * is compared.  With --json the table and the population-32 speedup
 * land in the RunReport artifact; the CI nightly-profile job archives
 * it and gates on >= 1.5x at population 32 (the seed in
 * BENCH_ga_throughput.json measures ~1.5x; see EXPERIMENTS.md).
 */

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common.hh"
#include "ga/fitness.hh"
#include "ga/random_search.hh"
#include "util/log.hh"
#include "util/rng.hh"

using namespace gippr;
using namespace gippr::bench;

namespace
{

const char *
familyName(IpvFamily family)
{
    return family == IpvFamily::Giplr ? "giplr" : "gippr";
}

double
onePass(const FitnessEvaluator &fitness, std::span<const Ipv> pop,
        IpvFamily family)
{
    const auto start = std::chrono::steady_clock::now();
    fitness.evaluateAll(pop, family, 1);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    return dt.count();
}

} // namespace

int
main(int argc, char **argv)
{
    Session session(argc, argv, "micro_ga_throughput");
    Scale scale = resolveScale();
    banner("micro_ga_throughput: per-genome vs batched GA evaluation",
           "fast replay engine (infrastructure, not a paper figure)");

    SyntheticSuite suite(suiteParams(scale));
    SystemParams sys = systemParams();
    // Every timed evaluateAll below runs on one thread.
    scale.threads = scale.ga.threads = 1;
    session.recordScale(scale);

    // The GA's training set: every workload's simpoints filtered to
    // LLC traces once, through the session memo.
    std::vector<FitnessTrace> traces;
    uint64_t total_accesses = 0;
    for (const WorkloadSpec &spec : suite.specs()) {
        const auto entries =
            session.traceCache().get(spec, sys.hier, &session.timings());
        for (const LlcTraceCache::Entry &entry : *entries) {
            FitnessTrace ft;
            ft.name = spec.name;
            ft.llcTrace = entry.demandTrace;
            ft.instructions = entry.instructions;
            traces.push_back(std::move(ft));
            total_accesses += entry.demandTrace->size();
        }
    }
    std::printf("training set: %llu LLC accesses over %zu traces\n\n",
                static_cast<unsigned long long>(total_accesses),
                traces.size());
    session.setConfig("trace_accesses",
                      telemetry::JsonValue(total_accesses));

    FitnessEvaluator fitness(sys.hier.llc, traces, {},
                             &session.timings());
    fitness.setMemoCapacity(0); // every timed pass pays its replays
    const unsigned batch = 32;
    session.setConfig("batch_width",
                      telemetry::JsonValue(uint64_t{batch}));
    session.setConfig("memo_capacity", telemetry::JsonValue(uint64_t{0}));

    const std::vector<size_t> pops = {1, 8, 32};
    const int reps = scale.quick ? 3 : 4;
    Table table({"family", "population", "single_genomes_s",
                 "batched_genomes_s", "speedup"});
    double gate = 0.0;
    bool first = true;
    for (IpvFamily family : {IpvFamily::Giplr, IpvFamily::Gippr}) {
        const unsigned ways = familyArity(family, sys.hier.llc);
        Rng rng(0xba7cULL + static_cast<uint64_t>(family));
        std::vector<Ipv> pool;
        pool.reserve(pops.back());
        for (size_t i = 0; i < pops.back(); ++i)
            pool.push_back(randomIpv(ways, rng));

        // Equal-work check: both widths must agree genome-for-genome
        // before their wall-clock is worth comparing.
        fitness.setBatchWidth(batch);
        const std::vector<double> batched =
            fitness.evaluateAll(pool, family, 1);
        fitness.setBatchWidth(1);
        if (fitness.evaluateAll(pool, family, 1) != batched) {
            fatal(std::string("batched evaluation diverged from "
                              "per-genome replay under ") +
                  familyName(family));
        }

        for (size_t pop_size : pops) {
            const std::span<const Ipv> pop(pool.data(), pop_size);
            // Interleave the widths round-robin and keep each one's
            // best round, so a transient machine-wide stall lands on
            // both sides of the ratio instead of skewing one.
            double s_single = 0.0, s_batched = 0.0;
            for (int r = 0; r < reps; ++r) {
                fitness.setBatchWidth(1);
                const double a = onePass(fitness, pop, family);
                fitness.setBatchWidth(batch);
                const double b = onePass(fitness, pop, family);
                if (r == 0 || a < s_single)
                    s_single = a;
                if (r == 0 || b < s_batched)
                    s_batched = b;
            }
            const double n = static_cast<double>(pop_size);
            const double speedup = s_single / s_batched;
            table.newRow()
                .add(familyName(family))
                .add("pop" + std::to_string(pop_size))
                .add(n / s_single, 2)
                .add(n / s_batched, 2)
                .add(speedup, 2);
            if (pop_size == pops.back() && (first || speedup < gate)) {
                gate = speedup;
                first = false;
            }
        }
    }
    emitTable(table, "ga_throughput");
    session.addTable("ga_throughput", "genomes_per_sec_or_speedup",
                     table);

    std::printf("\npopulation-%zu batched speedup over per-genome "
                "replay: %.2fx\n",
                pops.back(), gate);
    session.setConfig("pop32_speedup", telemetry::JsonValue(gate));
    note("streaming each trace once per generation amortizes decode "
         "and trace-memory traffic over the whole population; at "
         "population 1 both paths run the identical per-genome kernel");
    session.emit();
    return 0;
}
