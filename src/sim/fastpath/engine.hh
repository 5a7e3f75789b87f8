/**
 * @file
 * Replay engines: scalar reference and sharded fast backend.
 *
 * A ReplayEngine replays one LLC trace under one ReplaySpec and
 * returns ReplayStats.  Two implementations exist:
 *
 *  - ScalarReplayEngine replays a ScalarModel (the production
 *    SetAssocCache + ReplacementPolicy objects) and is the semantic
 *    reference.
 *  - FastReplayEngine replays SoaCacheModel.  Both run the one
 *    in-order loop, replayInOrder.  FastReplayEngine(n) can also
 *    shard replay(): the set space is split into contiguous ranges
 *    and each shard filter-scans the trace for its own sets on a
 *    worker of the shared pool.  Per-set access streams are
 *    independent unless the spec couplesSets() — DGIPPR's and
 *    DRRIP's tournaments, BRRIP's throttle RNG, PDP's sampler and
 *    solver: such a spec replays in one trace-order pass at any
 *    shard count.  Counter merges are plain sums over disjoint set
 *    ranges, so results are bit-identical for any shard count.
 *    replayMany() never shards: it batches every supported spec in
 *    one pass whatever shards() is.  The sharded replay() stays only
 *    as long as the benchmark probes it.
 *
 * Consumers default to defaultReplayEngine(), one unsharded fast
 * engine: callers like the GA already parallelize over traces, so
 * set sharding is reached only by constructing FastReplayEngine(n).
 */

#ifndef GIPPR_SIM_FASTPATH_ENGINE_HH_
#define GIPPR_SIM_FASTPATH_ENGINE_HH_

#include <span>
#include <string>
#include <vector>

#include "cache/replay.hh"
#include "sim/fastpath/replay_spec.hh"
#include "trace/trace.hh"
#include "util/check.hh"

namespace gippr::fastpath
{

/**
 * Replay @p trace through @p model (SoaCacheModel or ScalarModel) in
 * trace order; records with index >= @p warmup are measured, so a
 * warmup covering the whole trace leaves nothing measured.  Returns
 * model.stats().
 */
template <class Model>
ReplayStats
replayInOrder(Model &model, const Trace &trace, size_t warmup)
{
    GIPPR_CHECK(warmup <= trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        if (i == warmup)
            model.markWarmup();
        const MemRecord &r = trace[i];
        model.accessAddr(r.addr, recordType(r), r.pc);
    }
    if (warmup == trace.size())
        model.markWarmup();
    return model.stats();
}

/**
 * Batched chunk kernels FastReplayEngine::replayMany can dispatch for
 * a (genome-group, set-range) pass.  Batch32 pairs two 16-way genomes
 * per AVX2 signature scan and finishes each through a branch-free
 * tail; Scalar is the portable per-way loop.  Both are bit-identical.
 */
enum class ReplayKernel : uint8_t
{
    Scalar,
    Batch32,
};

/** Kernel name as recorded in RunReports ("scalar" or "batch32"). */
const char *replayKernelName(ReplayKernel kernel);

/**
 * Kernel the batched replay path dispatches on 16-way geometries:
 * Batch32 when this build compiles it in and the CPU has AVX2 and
 * BMI2, else Scalar.  Decided once per process from the CPU alone;
 * other geometries always run the Scalar loop.
 */
ReplayKernel activeReplayKernel();

/** Replays traces under value-described policies. */
class ReplayEngine
{
  public:
    virtual ~ReplayEngine() = default;

    /**
     * Replay @p trace against a cache of @p config geometry running
     * @p spec; records with index >= @p warmup are measured (the
     * replayTrace convention).
     */
    virtual ReplayStats replay(const ReplaySpec &spec,
                               const CacheConfig &config,
                               const Trace &trace,
                               size_t warmup) const = 0;

    /**
     * Replay @p trace once per spec in @p specs and return stats
     * index-aligned with the input.  Semantically identical to
     * calling replay() per spec (and that is the default
     * implementation); backends may amortize the shared per-record
     * work — trace fetch, set/tag decode — across the batch.
     */
    virtual std::vector<ReplayStats>
    replayMany(std::span<const ReplaySpec> specs,
               const CacheConfig &config, const Trace &trace,
               size_t warmup) const;

    /** Backend name ("scalar" or "fast"). */
    virtual std::string name() const = 0;
};

/** Reference backend: replayInOrder over a ScalarModel. */
class ScalarReplayEngine : public ReplayEngine
{
  public:
    ReplayStats replay(const ReplaySpec &spec, const CacheConfig &config,
                       const Trace &trace,
                       size_t warmup) const override;
    std::string name() const override { return "scalar"; }
};

/** Packed structure-of-arrays backend, optionally sharded. */
class FastReplayEngine : public ReplayEngine
{
  public:
    /**
     * @param shards set-space partitions; 1 = no threading, 0 = one
     *               per hardware thread
     */
    explicit FastReplayEngine(unsigned shards = 1);

    ReplayStats replay(const ReplaySpec &spec, const CacheConfig &config,
                       const Trace &trace,
                       size_t warmup) const override;

    /**
     * Batched kernel: all supported specs stream the trace ONCE in
     * genome-major order — each chunk of records is decoded a single
     * time (set index, tag, access type) and then applied to every
     * spec's packed model back to back, so the models' tag/signature
     * rows and PLRU words stay hot while the shared decode work is
     * paid once per generation instead of once per genome.  The
     * batch never shards, whatever shards() is.  Unsupported specs
     * fall back to scalar one at a time; results are bit-identical to
     * per-spec replay() for any batch composition and shard count.
     */
    std::vector<ReplayStats>
    replayMany(std::span<const ReplaySpec> specs,
               const CacheConfig &config, const Trace &trace,
               size_t warmup) const override;

    std::string name() const override { return "fast"; }

    unsigned shards() const { return shards_; }

    /**
     * True when the fast path covers @p spec at @p config; otherwise
     * replay() silently falls back to the scalar reference.
     */
    static bool supports(const ReplaySpec &spec,
                         const CacheConfig &config);

  private:
    unsigned shards_;
    ScalarReplayEngine fallback_;
};

/** The process-wide default engine: FastReplayEngine(1). */
const ReplayEngine &defaultReplayEngine();

} // namespace gippr::fastpath

#endif // GIPPR_SIM_FASTPATH_ENGINE_HH_
