/**
 * @file
 * The genetic algorithm's fitness function (paper, Section 4.3).
 *
 * The paper evaluates candidate IPVs on a *fast* cache-only simulator:
 * LLC access traces are replayed under the candidate policy, and CPI
 * is estimated as a linear function of the miss count; fitness is the
 * average estimated speedup over the LRU baseline across all training
 * simpoints.  The first third of each trace warms the cache and the
 * remainder is measured (the paper warms with 500M of 1.5B
 * instructions).  As the paper notes, this model deliberately ignores
 * memory-level parallelism; the full CPU model in src/sim is used for
 * final reporting only.
 */

#ifndef GIPPR_GA_FITNESS_HH_
#define GIPPR_GA_FITNESS_HH_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/config.hh"
#include "core/ipv.hh"
#include "sim/fastpath/engine.hh"
#include "sim/fastpath/hierarchy.hh"
#include "telemetry/metrics.hh"
#include "telemetry/timer.hh"
#include "trace/simpoint.hh"
#include "trace/trace.hh"

namespace gippr
{

/** Which IPV-driven policy family a vector is evaluated under. */
enum class IpvFamily
{
    Giplr,   ///< true-LRU recency stack (paper Section 2)
    Gippr,   ///< tree PseudoLRU (paper Section 3)
    RripIpv, ///< 2-bit RRIP generalization (paper Section 7, item 5)
};

/**
 * Arity of the vectors a family evolves: the associativity for the
 * stack/tree families, the RRPV level count (4) for RripIpv.
 */
unsigned familyArity(IpvFamily family, const CacheConfig &llc);

/** Linear CPI model parameters. */
struct CpiModel
{
    /** Cycles per instruction with a perfect LLC. */
    double baseCpi = 0.5;
    /** Extra cycles charged per LLC demand miss. */
    double missPenalty = 200.0;
};

/** One training unit: a pre-filtered LLC trace. */
struct FitnessTrace
{
    /** Name of the workload/simpoint this trace came from. */
    std::string name;
    /** LLC-level access trace (see Hierarchy::filterToLlc). */
    std::shared_ptr<const Trace> llcTrace;
    /** Instructions the originating CPU-level segment covered. */
    uint64_t instructions = 0;
};

/** Evaluates IPVs by estimated speedup over LRU. */
class FitnessEvaluator
{
  public:
    /**
     * @param llc      geometry of the LLC under study
     * @param traces   training traces; LRU baselines are precomputed
     *                 here, in parallel over the traces
     * @param model    linear CPI model
     * @param timings  optional sink for the "fitness_baseline" phase
     * @param engine   replay engine for the LRU baseline and every
     *                 family (GIPLR, GIPPR and RripIpv all replay
     *                 through it); null means defaultReplayEngine()
     */
    FitnessEvaluator(const CacheConfig &llc,
                     std::vector<FitnessTrace> traces,
                     CpiModel model = {},
                     telemetry::PhaseTimings *timings = nullptr,
                     const fastpath::ReplayEngine *engine = nullptr);

    /**
     * Mean estimated speedup of @p ipv over LRU across the training
     * traces (the paper's arithmetic-mean fitness).
     */
    double evaluate(const Ipv &ipv, IpvFamily family) const;

    /** Per-trace speedups for @p ipv (diagnostics, set selection). */
    std::vector<double> perTraceSpeedups(const Ipv &ipv,
                                         IpvFamily family) const;

    /**
     * Batch evaluation: fitness of every vector in @p ipvs, computed
     * by streaming each trace ONCE for up to batchWidth() genomes at
     * a time (ReplayEngine::replayMany) and memoized on (family,
     * canonical IPV bytes, trace-set digest) so duplicate children,
     * carried-over elites and duel-set candidates never pay a second
     * replay.  @p threads as in resolveThreads (0 = the CPUs the
     * process may run on, <= 1 inline); the work items are
     * (genome-batch, trace) pairs.  Returns the same values
     * evaluate() would, index-aligned.
     */
    std::vector<double> evaluateAll(std::span<const Ipv> ipvs,
                                    IpvFamily family,
                                    unsigned threads = 0) const;

    /** Batched perTraceSpeedups (one row per input vector). */
    std::vector<std::vector<double>>
    perTraceSpeedupsAll(std::span<const Ipv> ipvs, IpvFamily family,
                        unsigned threads = 0) const;

    /**
     * Measured demand misses for every (vector, trace) pair — the
     * batch kernel's raw output (row g, column t) and the unit the
     * memo cache stores.
     */
    std::vector<std::vector<uint64_t>>
    missesForAll(std::span<const Ipv> ipvs, IpvFamily family,
                 unsigned threads = 0) const;

    /** Default batchWidth(). */
    static constexpr unsigned kDefaultBatchWidth = 32;
    /** Default memoCapacity(). */
    static constexpr size_t kDefaultMemoCapacity = size_t{1} << 16;

    /**
     * Genomes replayed together per trace stream (default
     * kDefaultBatchWidth; <= 1 restores per-genome replay).
     */
    void setBatchWidth(unsigned genomes);
    unsigned batchWidth() const { return batchWidth_; }

    /**
     * Memo entries retained, each one vector's per-trace miss row
     * (default kDefaultMemoCapacity; 0 disables memoization).
     */
    void setMemoCapacity(size_t entries);
    size_t memoCapacity() const { return memoCapacity_; }

    /** FNV-1a digest of the training traces AND the LLC geometry
     *  (memo-key component): evaluators over the same traces at a
     *  different cache shape must not share memo entries. */
    uint64_t traceSetDigest() const { return traceDigest_; }

    /** Precomputed LRU demand misses on trace @p idx. */
    uint64_t lruMisses(size_t idx) const;

    size_t traceCount() const { return traces_.size(); }
    const FitnessTrace &trace(size_t idx) const { return traces_[idx]; }
    const CacheConfig &llc() const { return llc_; }
    const CpiModel &model() const { return model_; }

    /** Estimated CPI given misses and an instruction count. */
    double estimateCpi(uint64_t misses, uint64_t instructions) const;

    /**
     * Count every evaluate()/evaluateAll() candidate in
     * "<prefix>.evaluations", every candidate trace replay in
     * "<prefix>.replays" (batched ones also in
     * "<prefix>.batch_replays"), and memo outcomes in
     * "<prefix>.memo_hits" / "<prefix>.memo_misses" (thread-safe; GA
     * workers call evaluate concurrently).
     */
    void attachTelemetry(telemetry::MetricRegistry &registry,
                         const std::string &prefix);

  private:
    size_t warmupOf(size_t idx) const;
    /** Memo key: family byte + trace-set digest + IPV bytes. */
    std::string memoKey(const Ipv &ipv, IpvFamily family) const;
    /** CPI-model speedups from one per-trace miss row. */
    std::vector<double>
    speedupsFromMisses(const std::vector<uint64_t> &misses) const;

    CacheConfig llc_;
    std::vector<FitnessTrace> traces_;
    CpiModel model_;
    const fastpath::ReplayEngine *engine_;
    std::vector<uint64_t> lruMisses_;
    unsigned batchWidth_ = kDefaultBatchWidth;
    size_t memoCapacity_ = kDefaultMemoCapacity;
    uint64_t traceDigest_ = 0;
    /** Memoized per-trace miss rows, keyed by memoKey(). */
    mutable std::mutex memoMu_;
    mutable std::unordered_map<std::string, std::vector<uint64_t>>
        memo_;
    telemetry::Counter *evaluations_ = nullptr;
    telemetry::Counter *replays_ = nullptr;
    telemetry::Counter *batchReplays_ = nullptr;
    telemetry::Counter *memoHits_ = nullptr;
    telemetry::Counter *memoMisses_ = nullptr;
};

/**
 * Convenience: filter CPU-level workloads down to LLC traces for
 * fitness evaluation (one FitnessTrace per simpoint, named
 * "<workload>/<index>").  L1 and L2 use true LRU, as in the paper.
 */
std::vector<FitnessTrace>
buildFitnessTraces(const std::vector<Workload> &workloads,
                   const HierarchyConfig &hier);

} // namespace gippr

#endif // GIPPR_GA_FITNESS_HH_
