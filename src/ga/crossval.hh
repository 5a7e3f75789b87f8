/**
 * @file
 * Workload-neutral (WN1) and workload-inclusive (WI) vector evolution
 * (paper, Section 4.4).
 *
 * WI trains one GA over every workload's traces — the optimistic
 * methodology.  WN1 is leave-one-out cross-validation: for each
 * workload, vectors are evolved using only the *other* workloads'
 * traces, eliminating training bias when that workload is evaluated.
 * The paper reports both and finds the difference small (e.g. 5.61%
 * vs 5.66% geomean speedup for the 4-vector configuration).
 */

#ifndef GIPPR_GA_CROSSVAL_HH_
#define GIPPR_GA_CROSSVAL_HH_

#include <map>
#include <string>
#include <vector>

#include "ga/fitness.hh"
#include "ga/genetic.hh"
#include "workloads/suite.hh"

namespace gippr
{

/** Traces of one named workload (one entry per simpoint). */
struct WorkloadTraces
{
    std::string name;
    std::vector<FitnessTrace> traces;
};

/**
 * Training traces of the named suite workloads (every workload when
 * @p names is empty), each materialized and filtered through @p hier's
 * L1 and L2 by buildFitnessTraces.  The workloads build concurrently
 * on resolveThreads(0) workers, each holding one CPU-level workload at
 * a time, and return in input order.
 */
std::vector<WorkloadTraces>
fitnessWorkloads(const SyntheticSuite &suite,
                 const std::vector<std::string> &names,
                 const HierarchyConfig &hier);

/**
 * Every workload's traces in order, except the workload named
 * @p skip ("" skips none).
 */
std::vector<FitnessTrace>
flattenExcept(const std::vector<WorkloadTraces> &workloads,
              const std::string &skip);

/**
 * Workload-inclusive evolution: one GA over all traces, then the
 * run's @p n_vectors duel set (duelSetFromRun).  The fitness evaluator
 * records into params.timings.
 */
std::vector<Ipv> evolveWi(const CacheConfig &llc,
                          const std::vector<WorkloadTraces> &workloads,
                          IpvFamily family, size_t n_vectors,
                          const GaParams &params);

/** Per-workload vector sets from a WN1 run. */
using Wn1Vectors = std::map<std::string, std::vector<Ipv>>;

/**
 * WN1 evolution: for each workload, evolve on every other workload's
 * traces and select its duel set from that run (duelSetFromRun).  The
 * returned map has one entry per workload; fold k (0-based, in input
 * order) runs with seed params.seed + 0x9e37 * (k + 1) so folds
 * explore independently.
 */
Wn1Vectors evolveWn1(const CacheConfig &llc,
                     const std::vector<WorkloadTraces> &workloads,
                     IpvFamily family, size_t n_vectors,
                     const GaParams &params);

} // namespace gippr

#endif // GIPPR_GA_CROSSVAL_HH_
