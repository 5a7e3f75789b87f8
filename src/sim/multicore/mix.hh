/**
 * @file
 * Multi-programmed workload mixes for the shared-LLC simulator.
 *
 * A MixSpec names the workload each core (tenant) replays plus an
 * optional arrival weight consumed by the weighted interleaving
 * schedule.  Mixes come from three sources, all deterministic:
 *
 *  - preset names ("thrash-heavy", "balanced", "reuse-heavy",
 *    "stream-polluted", "kv-serving") matching the bench mixes;
 *  - explicit comma-separated workload lists, optionally with
 *    ":<weight>" suffixes ("loop_thrash:2,zipf_hot");
 *  - any workload of the synthetic suite, of the KV-cache
 *    multi-tenant family (workloads/suite.hh's kvCacheFamily) or of
 *    the phase-shift family (phaseShiftFamily).
 *
 * buildCoreStreams() streams each member workload's first simpoint
 * through the private L1+L2 (true LRU, as everywhere) and returns the
 * demand-only LLC trace every core feeds into the shared LLC —
 * exactly the stream the single-core miss experiments replay, which
 * is what makes the 1-core bit-identity gate meaningful.
 */

#ifndef GIPPR_SIM_MULTICORE_MIX_HH_
#define GIPPR_SIM_MULTICORE_MIX_HH_

#include <memory>
#include <string>
#include <vector>

#include "sim/fastpath/hierarchy.hh"
#include "sim/trace_cache.hh"
#include "workloads/suite.hh"

namespace gippr::multicore
{

/** One tenant of a mix: a workload name plus its arrival weight. */
struct TenantSpec
{
    std::string workload;
    /** Relative arrival rate under the weighted schedule (>= 1). */
    uint64_t weight = 1;
};

/** A named multi-programmed mix. */
struct MixSpec
{
    std::string name;
    std::vector<TenantSpec> tenants;
};

/** The bench preset mixes (4 tenants each), in stable order. */
const std::vector<MixSpec> &presetMixes();

/**
 * Resolve @p text into a mix for @p cores cores: a preset name, or a
 * comma-separated list of "workload[:weight]" entries.  Lists shorter
 * than @p cores are cycled; longer lists are truncated.  Throws (via
 * fatal) on empty mixes or weight 0.
 */
MixSpec parseMixSpec(const std::string &text, unsigned cores);

/** One core's input stream: a demand-only LLC trace plus metadata. */
struct CoreStream
{
    std::string workload;
    std::shared_ptr<const Trace> trace;
    /** Instructions of the originating CPU segment. */
    uint64_t instructions = 0;
    /** Arrival weight copied from the TenantSpec. */
    uint64_t weight = 1;
};

/**
 * Stream the first simpoint of each of the mix's workloads (like the
 * bench mixes) through the L1/L2 into per-core LLC streams; the other
 * simpoints are never generated.  Workload names resolve against
 * @p suite first, then against the KV-cache and phase-shift families
 * built from the suite's params.  @p cache, when non-null, memoizes
 * the filtered traces across calls, keyed by the one-simpoint spec.
 *
 * The mix's distinct workloads build concurrently on
 * resolveThreads(0) workers; the streams return in tenant order, and
 * tenants naming one workload share one trace.  The cache's counters
 * read one lookup per tenant, as a serial loop's would: a repeated
 * tenant is a miss once and a hit after that.
 */
std::vector<CoreStream> buildCoreStreams(const MixSpec &mix,
                                         const SyntheticSuite &suite,
                                         const HierarchyConfig &hier,
                                         LlcTraceCache *cache);

} // namespace gippr::multicore

#endif // GIPPR_SIM_MULTICORE_MIX_HH_
