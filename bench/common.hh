/**
 * @file
 * Shared infrastructure for the figure/table benches.
 *
 * Every bench binary regenerates one or more of the paper's tables or
 * figures on the synthetic suite (see DESIGN.md for the per-experiment
 * index).
 * Scale is controlled by the GIPPR_BENCH_SCALE environment variable:
 *   quick (default) — minutes-long total runtime for the whole bench
 *                     directory; reduced traces and search budgets
 *   full            — larger traces and search budgets, closer to the
 *                     paper's methodology (still laptop-scale)
 * Any other value is fatal, so a misspelt scale never runs as quick.
 *
 * GA-driven benches build their training traces with src/ga's
 * fitnessWorkloads and flattenExcept (ga/crossval.hh, included here).
 */

#ifndef GIPPR_BENCH_COMMON_HH_
#define GIPPR_BENCH_COMMON_HH_

#include <string>
#include <vector>

#include "ga/crossval.hh"
#include "sim/experiment.hh"
#include "telemetry/report.hh"
#include "workloads/suite.hh"

namespace gippr::bench
{

/** Bench scale knobs; resolveScale() sets every one of them. */
struct Scale
{
    bool quick = true;
    /** CPU references per simpoint. */
    uint64_t accessesPerSimpoint;
    /** Samples for the random design-space exploration (Fig. 1). */
    size_t randomSamples;
    /** GA parameters for vector-evolution benches. */
    GaParams ga;
    /** Worker threads. */
    unsigned threads = 0;
};

/** Resolve the scale from GIPPR_BENCH_SCALE. */
Scale resolveScale();

/** The bench LLC: 1MB, 16-way (scaled-down from the paper's 4MB). */
SuiteParams suiteParams(const Scale &scale);

/** Hierarchy + CPU model for the bench LLC. */
SystemParams systemParams();

/** Experiment config wired to the scale. */
ExperimentConfig experimentConfig(const Scale &scale);

/**
 * Per-binary telemetry session shared by every bench target.
 *
 * Construct it first thing in main(); it parses the common flags
 * (currently `--json <path>` / `--json=<path>`) and GIPPR_FAULT_INJECT
 * (so a malformed spec stops the bench at once), and owns the phase
 * timings, metric registry and RunReport for the run.  Benches record
 * results as they go and call emit() last — without --json, emit() is
 * a no-op and the bench behaves exactly as before.
 *
 *   int main(int argc, char **argv) {
 *       Session session(argc, argv, "abl_vectors");
 *       Scale scale = resolveScale();
 *       ExperimentConfig cfg = session.experimentConfig(scale);
 *       ...
 *       session.addResult("abl_vectors", r);
 *       session.emit();
 *   }
 */
class Session
{
  public:
    /** @p kind is the RunReport kind ("bench" unless overridden). */
    Session(int argc, char **argv, const std::string &name,
            const std::string &kind = "bench");

    /** True when --json was given (emit() will write the artifact). */
    bool jsonRequested() const { return !jsonPath_.empty(); }

    telemetry::PhaseTimings &timings() { return timings_; }
    telemetry::MetricRegistry &registry() { return registry_; }
    telemetry::RunReport &report() { return report_; }
    LlcTraceCache &traceCache() { return traceCache_; }

    /**
     * experimentConfig(scale) with this session's telemetry taps,
     * trace cache and replay engine wired in; also records the
     * standard config keys (scale, cache geometry, threads, base
     * seed, replay backend) on first call.  Benches that run several
     * experiments therefore filter each workload's LLC trace once.
     */
    ExperimentConfig experimentConfig(const Scale &scale);

    /** Record the scale knobs and the batched replay kernel this
     *  host dispatches ("replay_kernel") without building an
     *  ExperimentConfig. */
    void recordScale(const Scale &scale);

    /** Record the policy list under config key "policies". */
    void recordPolicies(const std::vector<PolicyDef> &policies);

    /** Set one free-form config key. */
    void setConfig(const std::string &key, telemetry::JsonValue value);

    /** Append an experiment result as a result table. */
    void addResult(const std::string &title, const ExperimentResult &r);

    /**
     * Append a rendered bench table.  The leading run of non-numeric
     * columns forms each row's name (joined with "/"); the remaining
     * columns become the numeric value columns.
     */
    void addTable(const std::string &title, const std::string &metric,
                  const Table &table);

    /** Write the JSON artifact if --json was given. */
    void emit();

  private:
    std::string jsonPath_;
    telemetry::PhaseTimings timings_;
    telemetry::MetricRegistry registry_;
    telemetry::RunReport report_;
    LlcTraceCache traceCache_;
    bool configRecorded_ = false;
};

/** JSON view of a cache geometry (name/size/assoc/block). */
telemetry::JsonValue toJson(const CacheConfig &cfg);

/** JSON view of a system (l1/l2/llc + warmup fraction). */
telemetry::JsonValue toJson(const SystemParams &sys);

/** JSON view of the bench scale knobs. */
telemetry::JsonValue toJson(const Scale &scale);

/** Print a section header for bench output. */
void banner(const std::string &title, const std::string &paper_ref);

/** Print a table as aligned text followed by CSV. */
void emitTable(const Table &table, const std::string &csv_label);

/** Print a short note line (paper-shape commentary). */
void note(const std::string &text);

} // namespace gippr::bench

#endif // GIPPR_BENCH_COMMON_HH_
