/**
 * @file
 * Whole-system simulation: CPU trace -> L1/L2 -> LLC -> CPU model.
 */

#ifndef GIPPR_SIM_SYSTEM_HH_
#define GIPPR_SIM_SYSTEM_HH_

#include "sim/cpu_model.hh"
#include "sim/fastpath/hierarchy.hh"
#include "trace/simpoint.hh"
#include "trace/trace.hh"

namespace gippr
{

/** Result of simulating one trace segment under one LLC policy. */
struct SimResult
{
    double ipc = 0.0;
    uint64_t instructions = 0;
    double cycles = 0.0;
    /** LLC demand misses in the measured region. */
    uint64_t llcMisses = 0;
    /** LLC demand misses per kilo-instruction. */
    double llcMpki = 0.0;
    /** Full LLC statistics for the measured region. */
    CacheStats llcStats;
};

/** System-level simulation parameters. */
struct SystemParams
{
    HierarchyConfig hier;
    CpuParams cpu;
    /** Fraction of each trace used to warm caches before measuring. */
    double warmupFraction = 1.0 / 3.0;
};

/**
 * fatal, naming the value, unless @p params.warmupFraction is in
 * [0, 1] (NaN is not).  simulateTrace and runMissExperiment call it.
 */
void checkWarmupFraction(const SystemParams &params);

/**
 * Simulate @p cpu_trace end to end with @p llc_policy in the LLC
 * (L1/L2 use true LRU, as in the paper's CMP$im setup).  A factory
 * built as a fastpath::SpecFactory (every PolicyDef with a fastSpec)
 * runs its spec on the packed SoaCacheModel when the model supports
 * the LLC geometry; any other factory, and any unsupported geometry,
 * runs on its scalar twin, fastpath::ScalarModel (which hands the
 * policy each access's pc).  One CPU walk, templated over the model,
 * drives both, and they give bit-identical results.
 */
SimResult simulateTrace(const Trace &cpu_trace,
                        const PolicyFactory &llc_policy,
                        const SystemParams &params);

/**
 * Simulate every simpoint of @p workload and combine per-simpoint IPC
 * and MPKI with the SimPoint weights (the paper's per-benchmark
 * reporting rule).  Instructions, cycles, LLC misses and llcStats are
 * the simpoints' unweighted sums.
 */
SimResult simulateWorkload(const Workload &workload,
                           const PolicyFactory &llc_policy,
                           const SystemParams &params);

} // namespace gippr

#endif // GIPPR_SIM_SYSTEM_HH_
