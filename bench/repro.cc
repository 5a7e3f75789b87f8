/**
 * @file
 * The paper's headline figures from one driver: Fig. 1 (random IPV
 * search), Fig. 4 (GIPLR speedup), Figs. 10 and 11 (MPKI vs LRU and
 * MIN) and Fig. 13 (speedup comparison and the memory-intensive
 * subset), over one suite and one Session.
 *
 * Figs. 10 and 11 share one miss experiment over the union of their
 * columns plus MIN and two extra duel sets (the paper's WI-4-DGIPPR
 * quad and a {PLRU, LIP} pair); Figs. 4 and 13 share one performance
 * experiment.  Every column replays independently, so each figure's
 * table and CSV block equal those of a run over its own columns only.
 *
 * `--json` writes the run as a RunReport: one raw result table per
 * figure, an "extra" table, a "summary" table of the derived numbers
 * EXPERIMENTS.md quotes, the whole-pipeline wall time as the
 * "pipeline" phase and the host under config.host.  BENCH_repro.json
 * is that artifact at quick scale; tests/repro_rows.py reruns the
 * driver and diffs it.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common.hh"
#include "core/vectors.hh"
#include "ga/random_search.hh"
#include "util/stats.hh"

using namespace gippr;
using namespace gippr::bench;

namespace
{

/** Append one derived number to the summary table. */
void
addSummary(telemetry::ResultTable &summary, const std::string &name,
           double value)
{
    summary.rows.push_back({name, {value}});
}

/** @p r restricted to the columns @p names, in that order. */
ExperimentResult
project(const ExperimentResult &r, const std::vector<std::string> &names)
{
    std::vector<size_t> cols;
    for (const std::string &name : names)
        cols.push_back(r.columnIndex(name));
    ExperimentResult out;
    out.columns = names;
    out.metric = r.metric;
    for (const WorkloadRow &row : r.rows) {
        WorkloadRow projected{row.workload, {}};
        for (size_t c : cols)
            projected.values.push_back(row.values[c]);
        out.rows.push_back(std::move(projected));
    }
    return out;
}

/**
 * Print figure @p label's table normalized to LRU (rows ascending by
 * @p sort_col, as the paper sorts its bars) and its geomeans; record
 * the raw rows as result table @p label and the geomeans in
 * @p summary.
 */
void
reportFigure(Session &session, telemetry::ResultTable &summary,
             const ExperimentResult &fig, const std::string &label,
             const std::string &sort_col)
{
    const bool speedup = fig.metric == "IPC";
    const size_t lru = fig.columnIndex("LRU");
    emitTable(fig.toNormalizedTable(lru, speedup,
                                    fig.columnIndex(sort_col)),
              label);
    session.addResult(label, fig);
    std::printf(speedup ? "\ngeomean speedup over LRU:\n"
                        : "\ngeomean normalized MPKI (LRU = 1.0):\n");
    for (size_t c = 0; c < fig.columns.size(); ++c) {
        const double g = fig.geomeanNormalized(c, lru, speedup);
        std::printf("  %-16s %.4f\n", fig.columns[c].c_str(), g);
        addSummary(summary, label + "/geomean/" + fig.columns[c], g);
    }
}

/** Figure 1: sorted speedups of uniformly random GIPPR vectors. */
void
fig01(Session &session, telemetry::ResultTable &summary,
      const Scale &scale, const SyntheticSuite &suite,
      const SystemParams &sys)
{
    banner("fig01: random IPV design-space exploration",
           "Figure 1 / Section 4.1");
    // A cross-section mirroring SPEC's composition: mostly
    // recency-friendly workloads with a minority of thrashers (most
    // SPEC members are served well by LRU; only a handful reward
    // anti-thrash insertion).  A thrash-dominated training set would
    // invert Figure 1's shape, because on a thrash loop *any*
    // non-MRU insertion beats LRU.
    // No pure cyclic thrasher here: a loop at 1.25x capacity rewards
    // *any* non-MRU insertion with a 2-3x speedup, which would drag
    // the whole sample above parity — SPEC's hostile members (mcf)
    // are too large for random vectors to fix, so Figure 1's mass
    // sits below 1.0.  hotcold_scan supplies bounded anti-thrash
    // upside instead.
    std::vector<std::string> training = {
        "sd_lrufriendly", "sd_nearcap",  "zipf_hot",
        "zipf_twophase",  "chase_small", "hotcold_stream",
        "hotcold_scan",   "loop_fit",    "chase_large",
    };
    FitnessEvaluator fitness(
        sys.hier.llc,
        flattenExcept(fitnessWorkloads(suite, training, sys.hier), ""), {},
        &session.timings());
    fitness.attachTelemetry(session.registry(), "fitness");

    std::printf("sampling %zu random IPVs over a 16-way LLC "
                "(paper: 15,000)...\n",
                scale.randomSamples);
    auto samples = randomSearch(fitness, IpvFamily::Gippr,
                                scale.randomSamples, 0xF16001,
                                scale.threads);

    Table table({"percentile", "speedup over LRU"});
    for (int pct : {0, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99,
                    100}) {
        size_t idx = std::min(samples.size() - 1,
                              samples.size() * pct / 100);
        table.newRow().add(pct).add(samples[idx].fitness, 4);
    }
    emitTable(table, "fig01");
    session.addTable("fig01", "speedup over LRU", table);

    size_t losing = 0;
    for (const auto &s : samples)
        if (s.fitness < 1.0)
            ++losing;
    const double best = samples.back().fitness;
    const double ga = fitness.evaluate(local_vectors::gippr(),
                                       IpvFamily::Gippr);
    std::printf("\nsamples below LRU parity: %zu / %zu (%.1f%%)\n",
                losing, samples.size(),
                100.0 * static_cast<double>(losing) /
                    static_cast<double>(samples.size()));
    std::printf("best random sample: %.4f speedup, IPV %s\n", best,
                samples.back().ipv.toString().c_str());
    std::printf("GA-evolved vector:  %.4f speedup, IPV %s\n", ga,
                local_vectors::gippr().toString().c_str());
    note("paper: most random IPVs lose to LRU, with a thin tail near "
         "or above parity; the GA-evolved vector beats every random "
         "sample, which motivates genetic search");
    addSummary(summary, "fig01/samples",
               static_cast<double>(samples.size()));
    addSummary(summary, "fig01/below_parity", static_cast<double>(losing));
    addSummary(summary, "fig01/best_sample", best);
    addSummary(summary, "fig01/ga_vector", ga);
}

/** Figure 13's memory-intensive subset and below-99% counts. */
void
fig13Subset(telemetry::ResultTable &summary, const ExperimentResult &r)
{
    const size_t lru = r.columnIndex("LRU");
    // Memory-intensive subset: DRRIP speedup over LRU exceeds 1%.
    std::vector<size_t> subset =
        r.subsetWhere(r.columnIndex("DRRIP"), lru, true, 1.01);
    std::printf("\nmemory-intensive subset (DRRIP speedup > 1%%): "
                "%zu workloads\n",
                subset.size());
    addSummary(summary, "fig13/subset_size",
               static_cast<double>(subset.size()));
    for (size_t c = 0; c < r.columns.size(); ++c) {
        std::vector<double> vals;
        auto norm = r.normalized(c, lru, true);
        for (size_t i : subset)
            vals.push_back(std::max(norm[i], 1e-9));
        if (!vals.empty()) {
            std::printf("  %-16s %.4f\n", r.columns[c].c_str(),
                        geomean(vals));
            addSummary(summary, "fig13/subset_geomean/" + r.columns[c],
                       geomean(vals));
        }
    }

    // Consistency: count workloads below 99% of LRU.
    std::printf("\nworkloads below 99%% of LRU performance:\n");
    for (size_t c = 0; c < r.columns.size(); ++c) {
        size_t below = 0;
        for (double v : r.normalized(c, lru, true))
            if (v < 0.99)
                ++below;
        std::printf("  %-16s %zu\n", r.columns[c].c_str(), below);
        addSummary(summary, "fig13/below_99pct/" + r.columns[c],
                   static_cast<double>(below));
    }
}

/** The first "model name" of /proc/cpuinfo, or "unknown". */
std::string
cpuModelName()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        size_t start = line.find(':');
        if (start == std::string::npos)
            break;
        start = line.find_first_not_of(" \t", start + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    Session session(argc, argv, "repro");
    telemetry::ScopedTimer pipeline(&session.timings(), "pipeline");
    Scale scale = resolveScale();
    SyntheticSuite suite(suiteParams(scale));
    ExperimentConfig cfg = session.experimentConfig(scale);
    telemetry::JsonValue host = telemetry::JsonValue::object();
    host.set("cpu", telemetry::JsonValue(cpuModelName()));
    host.set("hardware_concurrency",
             telemetry::JsonValue(static_cast<uint64_t>(
                 std::thread::hardware_concurrency())));
    session.setConfig("host", std::move(host));

    telemetry::ResultTable summary{"summary", "value", {"value"}, {}};

    fig01(session, summary, scale, suite, cfg.system);

    // Figs. 4 and 13: one full-system run over both figures' columns.
    ExperimentResult perf = runPerfExperiment(
        suite,
        {policyByName("LRU"), policyByName("PLRU"), policyByName("Random"),
         giplrDef("GIPLR", local_vectors::giplr()), policyByName("DRRIP"),
         policyByName("PDP"),
         dgipprDef("4-DGIPPR", local_vectors::dgippr4())},
        cfg);

    banner("fig04: GIPLR vs LRU / PLRU / Random", "Figure 4 / Section 2.6");
    reportFigure(session, summary,
                 project(perf, {"LRU", "PLRU", "Random", "GIPLR"}),
                 "fig04", "GIPLR");
    note("paper: GIPLR 3.1% over LRU; PLRU about as good as LRU; "
         "Random 0.999 of LRU");
    std::printf("GIPLR vector: %s\n",
                local_vectors::giplr().toString().c_str());

    // Figs. 10 and 11 plus the extra duel sets: one miss run, with MIN.
    cfg.includeMin = true;
    ExperimentResult miss = runMissExperiment(
        suite,
        {policyByName("LRU"), gipprDef("GIPPR", local_vectors::gippr()),
         dgipprDef("2-DGIPPR", local_vectors::dgippr2()),
         dgipprDef("4-DGIPPR", local_vectors::dgippr4()),
         policyByName("DRRIP"), policyByName("PDP"),
         dgipprDef("WI-4-DGIPPR", paper_vectors::wi4Dgippr()),
         dgipprDef("PLRU+LIP-DGIPPR",
                   {Ipv::lru(cfg.system.hier.llc.assoc),
                    Ipv::lruInsertion(cfg.system.hier.llc.assoc)})},
        cfg);

    banner("fig10: GIPPR/DGIPPR misses vs LRU and MIN",
           "Figure 10 / Section 5.1");
    reportFigure(session, summary,
                 project(miss, {"LRU", "GIPPR", "2-DGIPPR", "4-DGIPPR",
                                "MIN"}),
                 "fig10", "4-DGIPPR");
    note("paper: every GIPPR variant below LRU (0.952, 0.965 and 0.910 "
         "of its misses for 1, 2 and 4 vectors); MIN at 0.675");

    banner("fig11: DRRIP / PDP / 4-DGIPPR misses vs MIN",
           "Figure 11 / Section 5.1");
    reportFigure(session, summary,
                 project(miss, {"LRU", "DRRIP", "PDP", "4-DGIPPR", "MIN"}),
                 "fig11", "DRRIP");
    std::printf("\nreplacement state at the paper's 4MB/16-way LLC:\n");
    for (const PolicyDef &p :
         {policyByName("DRRIP"), policyByName("PDP"),
          dgipprDef("4-DGIPPR", local_vectors::dgippr4())}) {
        std::printf("  %-16s %zu bits/set\n", p.name.c_str(),
                    p.make(CacheConfig::paperLlc())->stateBitsPerSet());
    }
    note("paper: DRRIP, PDP and 4-DGIPPR cluster at 0.90-0.92 of LRU's "
         "misses, DGIPPR with a fraction of the state; MIN at 0.675");

    banner("extra: the paper's WI-4-DGIPPR quad and a {PLRU, LIP} duel",
           "Section 5.3 vectors, beside the shipped 4-DGIPPR");
    reportFigure(session, summary,
                 project(miss, {"LRU", "4-DGIPPR", "WI-4-DGIPPR",
                                "PLRU+LIP-DGIPPR"}),
                 "extra", "WI-4-DGIPPR");

    banner("fig13: DRRIP / PDP / 4-DGIPPR speedup",
           "Figure 13 / Section 5.2.2");
    ExperimentResult f13 =
        project(perf, {"LRU", "DRRIP", "PDP", "4-DGIPPR"});
    reportFigure(session, summary, f13, "fig13", "DRRIP");
    fig13Subset(summary, f13);
    note("paper: the three gain 5.4-5.7% over LRU and 15.6-16.4% on "
         "the memory-intensive subset; DGIPPR is the most consistent "
         "(fewest workloads below 99% of LRU)");

    pipeline.stop();
    std::printf("\npipeline wall time: %.2f s\n",
                session.timings().seconds("pipeline"));
    session.report().addTable(std::move(summary));
    session.emit();
    return 0;
}
