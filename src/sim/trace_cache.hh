/**
 * @file
 * Cross-repetition cache of filtered LLC traces.
 *
 * Materializing a synthetic workload and filtering it through L1+L2
 * dominates the wall-clock of every miss experiment, and benches that
 * run several experiments over the same suite (ablation loops,
 * before/after comparisons) used to redo that work per repetition.
 * LlcTraceCache memoizes the demand-only LLC trace per (workload
 * spec, L1/L2 filter geometry) so repeated runMissExperiment calls
 * replay from memory.  A build streams each simpoint's generator in
 * small chunks through the L1/L2 into its demand-only trace, so the
 * CPU trace and the full LLC stream (with writebacks) are never held;
 * the entries equal demandOnlyTrace(filterToLlc(...)) of the
 * materialized simpoints.  The build is a two-stage pipeline: a
 * helper thread runs the generators and fills a ring of four chunks,
 * while the calling thread runs the L1/L2 cascade and the recorder
 * over the filled chunks in order.  Each stage stays sequential, so
 * the entries do not depend on how the two overlap.
 * Keys capture every input that shapes the filtered trace — workload
 * name, per-simpoint seeds/lengths/weights and the L1/L2 geometry —
 * so benches that deliberately vary the suite (seed ablations) never
 * alias entries, and benches that vary only the LLC (associativity
 * ablations) share one entry per workload.
 *
 * The cache is thread-compatible with the experiment harness's worker
 * pool: lookups lock a mutex, trace construction runs outside it, and
 * entries are immutable once published.  A worker that misses builds
 * on its own thread plus a helper, so N concurrent misses run 2N
 * threads.  Helpers park between builds and stay until the process
 * exits, one per build that ever ran at the same time.
 */

#ifndef GIPPR_SIM_TRACE_CACHE_HH_
#define GIPPR_SIM_TRACE_CACHE_HH_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/fastpath/hierarchy.hh"
#include "telemetry/timer.hh"
#include "trace/trace.hh"
#include "workloads/suite.hh"

namespace gippr
{

/** Memoizes demand-only LLC traces per workload spec. */
class LlcTraceCache
{
  public:
    /** One simpoint's filtered trace plus its combining metadata. */
    struct Entry
    {
        /** Demand-only LLC stream (writebacks stripped). */
        std::shared_ptr<const Trace> demandTrace;
        /** Instructions of the originating CPU segment. */
        uint64_t instructions = 0;
        /** SimPoint weight. */
        double weight = 1.0;
    };
    using Entries = std::vector<Entry>;

    /**
     * Entries for @p spec filtered through @p hier's L1+L2 (true LRU,
     * as everywhere), building and publishing them on first use.
     * @p timings, when non-null, receives the "materialize" phase
     * (the helper thread's busy generator seconds, once per build) and
     * the "llc_filter" phase (the calling thread's busy L1/L2 and
     * recording seconds, once per simpoint) on cache misses; hits cost
     * neither.  The two overlap, so their sum can exceed the build's
     * wall time.  An exception in either stage (a generator that
     * throws, a gap the recorder cannot carry) stops the other stage,
     * waits for the helper to let go of the build and propagates with
     * nothing published; a later get() builds afresh.
     */
    std::shared_ptr<const Entries> get(const WorkloadSpec &spec,
                                       const HierarchyConfig &hier,
                                       telemetry::PhaseTimings *timings);

    /** Lookup counters (test / diagnostics aid). */
    uint64_t hits() const;
    uint64_t misses() const;

  private:
    static std::string keyOf(const WorkloadSpec &spec,
                             const HierarchyConfig &hier);

    mutable std::mutex mu_;
    std::unordered_map<std::string, std::shared_ptr<const Entries>> map_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace gippr

#endif // GIPPR_SIM_TRACE_CACHE_HH_
