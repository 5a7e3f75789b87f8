/**
 * @file
 * Experiment harness implementation.
 */

#include "sim/experiment.hh"

#include <algorithm>

#include "policies/belady.hh"
#include "util/check.hh"
#include "util/log.hh"
#include "util/parallel.hh"
#include "util/stats.hh"

namespace gippr
{

namespace
{

/** Miss metrics for one workload under a policy list. */
WorkloadRow
missRowFor(const WorkloadSpec &spec,
           const std::vector<PolicyDef> &policies,
           const ExperimentConfig &config)
{
    const HierarchyConfig &hier = config.system.hier;
    const fastpath::ReplayEngine &engine =
        config.replayEngine ? *config.replayEngine
                            : fastpath::defaultReplayEngine();

    // Demand-only streams: the trace-driven miss simulator (like the
    // paper's) compares policies and MIN on an identical reference
    // string; see demandOnlyTrace().  A shared traceCache memoizes
    // them across experiments; the local fallback runs the identical
    // build path once.
    LlcTraceCache local_cache;
    LlcTraceCache &traces =
        config.traceCache ? *config.traceCache : local_cache;
    std::shared_ptr<const LlcTraceCache::Entries> entries =
        traces.get(spec, hier, config.timings);

    WorkloadRow row;
    row.workload = spec.name;

    // Per-policy MPKI per simpoint, then the weighted combine.
    size_t columns = policies.size() + (config.includeMin ? 1 : 0);
    std::vector<std::vector<double>> per_simpoint(columns);
    std::vector<double> weights;
    weights.reserve(entries->size());

    for (const LlcTraceCache::Entry &entry : *entries) {
        const Trace &llc_trace = *entry.demandTrace;
        weights.push_back(entry.weight);
        size_t warmup = static_cast<size_t>(
            static_cast<double>(llc_trace.size()) *
            config.system.warmupFraction);
        // Instructions in the measured region of the CPU segment.
        uint64_t inst = static_cast<uint64_t>(
            static_cast<double>(entry.instructions) *
            (1.0 - config.system.warmupFraction));
        if (inst == 0)
            inst = 1;

        telemetry::ScopedTimer replay_timer(config.timings, "replay");
        const std::vector<fastpath::CounterBank> measured =
            replayPolicies(policies, hier.llc, llc_trace, warmup, engine,
                           config.registry);
        for (size_t p = 0; p < policies.size(); ++p)
            per_simpoint[p].push_back(
                1000.0 * static_cast<double>(measured[p].demandMisses) /
                static_cast<double>(inst));
        if (config.includeMin) {
            uint64_t min_misses =
                runMinMisses(hier.llc, llc_trace, warmup);
            per_simpoint[policies.size()].push_back(
                1000.0 * static_cast<double>(min_misses) /
                static_cast<double>(inst));
        }
    }

    row.values.reserve(columns);
    for (size_t c = 0; c < columns; ++c)
        row.values.push_back(weightedMean(per_simpoint[c], weights));
    return row;
}

/** IPC metrics for one workload under a policy list. */
WorkloadRow
perfRowFor(const WorkloadSpec &spec,
           const std::vector<PolicyDef> &policies,
           const ExperimentConfig &config)
{
    telemetry::ScopedTimer materialize_timer(config.timings,
                                             "materialize");
    const Workload workload = SyntheticSuite::materialize(spec);
    materialize_timer.stop();
    WorkloadRow row;
    row.workload = spec.name;
    row.values.reserve(policies.size());
    telemetry::ScopedTimer simulate_timer(config.timings, "simulate");
    for (const PolicyDef &p : policies) {
        SimResult r = simulateWorkload(workload, p.make, config.system);
        row.values.push_back(r.ipc);
    }
    return row;
}

template <typename RowFn>
ExperimentResult
runOverSuite(const SyntheticSuite &suite,
             const std::vector<std::string> &columns,
             const ExperimentConfig &config, const std::string &metric,
             RowFn row_fn)
{
    ExperimentResult result;
    result.columns = columns;
    result.metric = metric;
    result.rows.resize(suite.specs().size());

    telemetry::ScopedTimer run_timer(
        config.timings,
        metric == "MPKI" ? "miss_experiment" : "perf_experiment");
    parallelFor(suite.specs().size(), resolveThreads(config.threads),
                [&](size_t i) {
                    result.rows[i] = row_fn(suite.specs()[i]);
                });
    return result;
}

std::vector<std::string>
columnNames(const std::vector<PolicyDef> &policies, bool include_min)
{
    std::vector<std::string> names;
    names.reserve(policies.size() + (include_min ? 1 : 0));
    for (const auto &p : policies)
        names.push_back(p.name);
    if (include_min)
        names.push_back("MIN");
    return names;
}

} // namespace

size_t
ExperimentResult::columnIndex(const std::string &name) const
{
    for (size_t i = 0; i < columns.size(); ++i)
        if (columns[i] == name)
            return i;
    fatal("no such experiment column: " + name);
}

std::vector<double>
ExperimentResult::normalized(size_t col, size_t base, bool speedup) const
{
    GIPPR_CHECK(col < columns.size());
    GIPPR_CHECK(base < columns.size());
    std::vector<double> out;
    out.reserve(rows.size());
    for (const auto &row : rows) {
        double v = row.values[col];
        double b = row.values[base];
        if (speedup) {
            // IPC ratio: candidate / baseline.
            out.push_back(b > 0.0 ? v / b : 1.0);
        } else {
            // MPKI ratio: candidate / baseline; if the baseline has
            // essentially no misses, report parity.
            out.push_back(b > 1e-9 ? v / b : 1.0);
        }
    }
    return out;
}

double
ExperimentResult::geomeanNormalized(size_t col, size_t base,
                                    bool speedup) const
{
    std::vector<double> vals = normalized(col, base, speedup);
    for (double &v : vals)
        v = std::max(v, 1e-9);
    return geomean(vals);
}

std::vector<size_t>
ExperimentResult::subsetWhere(size_t col, size_t base, bool speedup,
                              double threshold) const
{
    std::vector<double> vals = normalized(col, base, speedup);
    std::vector<size_t> out;
    for (size_t i = 0; i < vals.size(); ++i)
        if (vals[i] > threshold)
            out.push_back(i);
    return out;
}

Table
ExperimentResult::toNormalizedTable(size_t base, bool speedup,
                                    std::optional<size_t> sort_col,
                                    int precision) const
{
    std::vector<std::string> headers = {"workload"};
    for (const auto &c : columns)
        headers.push_back(c);
    Table table(std::move(headers));

    // Row order: optionally ascending by one column's normalized value.
    std::vector<size_t> order(rows.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    if (sort_col) {
        std::vector<double> key = normalized(*sort_col, base, speedup);
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) { return key[a] < key[b]; });
    }

    std::vector<std::vector<double>> norm(columns.size());
    for (size_t c = 0; c < columns.size(); ++c)
        norm[c] = normalized(c, base, speedup);

    for (size_t i : order) {
        table.newRow().add(rows[i].workload);
        for (size_t c = 0; c < columns.size(); ++c)
            table.add(norm[c][i], precision);
    }
    table.newRow().add("geomean");
    for (size_t c = 0; c < columns.size(); ++c)
        table.add(geomeanNormalized(c, base, speedup), precision);
    return table;
}

telemetry::ResultTable
ExperimentResult::toResultTable(const std::string &title) const
{
    telemetry::ResultTable table;
    table.title = title;
    table.metric = metric;
    table.columns = columns;
    table.rows.reserve(rows.size());
    for (const WorkloadRow &row : rows)
        table.rows.push_back({row.workload, row.values});
    return table;
}

Table
ExperimentResult::toRawTable(int precision) const
{
    std::vector<std::string> headers = {"workload"};
    for (const auto &c : columns)
        headers.push_back(c + " (" + metric + ")");
    Table table(std::move(headers));
    for (const auto &row : rows) {
        table.newRow().add(row.workload);
        for (double v : row.values)
            table.add(v, precision);
    }
    return table;
}

ExperimentResult
runMissExperiment(const SyntheticSuite &suite,
                  const std::vector<PolicyDef> &policies,
                  const ExperimentConfig &config)
{
    checkWarmupFraction(config.system);
    return runOverSuite(suite,
                        columnNames(policies, config.includeMin), config,
                        "MPKI", [&](const WorkloadSpec &spec) {
                            return missRowFor(spec, policies, config);
                        });
}

ExperimentResult
runPerfExperiment(const SyntheticSuite &suite,
                  const std::vector<PolicyDef> &policies,
                  const ExperimentConfig &config)
{
    return runOverSuite(suite, columnNames(policies, false), config,
                        "IPC", [&](const WorkloadSpec &spec) {
                            return perfRowFor(spec, policies, config);
                        });
}

} // namespace gippr
