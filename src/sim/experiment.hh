/**
 * @file
 * Suite-level experiment harness.
 *
 * Runs a list of named policies over the synthetic suite and collects
 * per-workload metrics, mirroring the paper's two evaluation modes:
 *
 *  - Miss experiments (Figures 10/11): replay each simpoint's filtered
 *    LLC trace under every policy (and optionally Belady MIN) and
 *    report MPKI, normalized to LRU.
 *  - Performance experiments (Figures 4/12/13): full-system simulation
 *    (hierarchy + interval CPU model) and report IPC speedup over LRU.
 *
 * Per-benchmark numbers are SimPoint-weighted means over simpoints;
 * suite summaries are geometric means, as in the paper.
 */

#ifndef GIPPR_SIM_EXPERIMENT_HH_
#define GIPPR_SIM_EXPERIMENT_HH_

#include <optional>
#include <string>
#include <vector>

#include "sim/fastpath/engine.hh"
#include "sim/policy_zoo.hh"
#include "sim/system.hh"
#include "sim/trace_cache.hh"
#include "telemetry/metrics.hh"
#include "telemetry/report.hh"
#include "telemetry/timer.hh"
#include "util/table.hh"
#include "workloads/suite.hh"

namespace gippr
{

/** Experiment-wide knobs. */
struct ExperimentConfig
{
    SystemParams system;
    /** Worker threads (workload-level parallelism); 0 = the CPUs the
     *  process may run on (resolveThreads). */
    unsigned threads = 0;
    /** Append a Belady MIN column (miss experiments only). */
    bool includeMin = false;
    /**
     * Optional telemetry taps (both may be null).  With a registry
     * attached, every simulated LLC mirrors its hit/miss/bypass
     * counters into "llc.<policy>.*"; with timings, the harness
     * records per-phase wall-clock ("materialize", "llc_filter",
     * "replay", and the whole run).  Both are thread-safe and shared
     * across the worker pool.
     */
    telemetry::MetricRegistry *registry = nullptr;
    telemetry::PhaseTimings *timings = nullptr;
    /**
     * Replay engine for miss experiments.  Policies with a fastSpec
     * replay through it, batched per simpoint; policies without one
     * always use the scalar simulator (see replayPolicies).  Null
     * means defaultReplayEngine().
     */
    const fastpath::ReplayEngine *replayEngine = nullptr;
    /**
     * Optional memo of filtered LLC traces, shared across experiments
     * (see LlcTraceCache).  Null rebuilds traces per call, as before.
     */
    LlcTraceCache *traceCache = nullptr;
};

/** Raw per-workload metric values, one per column. */
struct WorkloadRow
{
    std::string workload;
    std::vector<double> values;
};

/** Result of one experiment over the suite. */
struct ExperimentResult
{
    /** Column names (policy names, plus "MIN" when included). */
    std::vector<std::string> columns;
    /** One row per workload, in suite order. */
    std::vector<WorkloadRow> rows;
    /** What the values are ("MPKI" or "IPC"). */
    std::string metric;

    /** Column index of @p name; throws if absent. */
    size_t columnIndex(const std::string &name) const;

    /**
     * Values of column @p col normalized to column @p base per row
     * (for MPKI: ratio; for IPC: speedup).
     */
    std::vector<double> normalized(size_t col, size_t base,
                                   bool speedup) const;

    /** Geometric mean of normalized(col, base). */
    double geomeanNormalized(size_t col, size_t base,
                             bool speedup) const;

    /**
     * Rows whose normalized value of @p col vs @p base exceeds
     * @p threshold (the paper's "memory-intensive subset": workloads
     * where DRRIP's speedup over LRU exceeds 1%).
     */
    std::vector<size_t> subsetWhere(size_t col, size_t base,
                                    bool speedup,
                                    double threshold) const;

    /**
     * Render a table: first column workload, then one column per
     * policy, normalized to @p base (plus a geomean footer row).
     * Rows are sorted ascending by @p sort_col 's normalized value
     * (the paper sorts its bar charts by DRRIP).
     */
    Table toNormalizedTable(size_t base, bool speedup,
                            std::optional<size_t> sort_col,
                            int precision = 4) const;

    /** Render raw metric values (no normalization). */
    Table toRawTable(int precision = 4) const;

    /** Raw values as a telemetry table (for RunReport artifacts). */
    telemetry::ResultTable toResultTable(const std::string &title) const;
};

/**
 * Miss experiment: LLC-trace replay per policy.
 * The suite's workloads are processed in parallel.
 */
ExperimentResult runMissExperiment(const SyntheticSuite &suite,
                                   const std::vector<PolicyDef> &policies,
                                   const ExperimentConfig &config);

/** Performance experiment: full-system IPC per policy. */
ExperimentResult runPerfExperiment(const SyntheticSuite &suite,
                                   const std::vector<PolicyDef> &policies,
                                   const ExperimentConfig &config);

} // namespace gippr

#endif // GIPPR_SIM_EXPERIMENT_HH_
