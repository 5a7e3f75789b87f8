/**
 * @file
 * The shared-LLC multi-core replay engine.
 *
 * runSharedLlc() is the multicore counterpart of fastpath's
 * ReplayEngine::replay: it merges N per-core LLC streams through one
 * deterministic Interleaver into one shared cache model, keeps
 * per-core counter banks and warmup snapshots, maps each core to its
 * duel domain and way mask, drives the optional utility
 * repartitioner, replays each core's solo baseline through the
 * existing single-core engines, and derives the fairness report.
 *
 * RunParams::backend picks the model: the packed
 * fastpath::SoaCacheModel, or its scalar twin fastpath::ScalarModel —
 * the production SetAssocCache and policy object, the same scalar
 * reference the single-core ScalarReplayEngine runs.  One replay
 * loop, templated over the model, drives both.  The two share no
 * state layout, which is what makes the scalar-vs-fast oracle
 * meaningful for interleaved streams.
 *
 * Determinism contract: for fixed streams and RunParams the result
 * is bit-identical across runs and across backends; with one core,
 * no partitioning and either duel scope the per-core ReplayStats are
 * bit-identical to fastpath::ReplayEngine::replay on the same trace
 * and warmup (tests/test_multicore_sim.cc).
 */

#ifndef GIPPR_SIM_MULTICORE_ENGINE_HH_
#define GIPPR_SIM_MULTICORE_ENGINE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "sim/fastpath/engine.hh"
#include "sim/fastpath/replay_spec.hh"
#include "sim/multicore/fairness.hh"
#include "sim/multicore/mix.hh"
#include "sim/multicore/partition.hh"
#include "sim/multicore/schedule.hh"

namespace gippr::multicore
{

/** Which cache-model implementation replays the stream. */
enum class Backend
{
    Fast,   ///< packed fastpath::SoaCacheModel
    Scalar, ///< scalar reference models
};

/** Parse "fast" or "scalar"; fatal otherwise. */
Backend parseBackend(const std::string &text);

/** Stable display name. */
const char *backendName(Backend backend);

/**
 * The single-core replay engine of @p backend: defaultReplayEngine()
 * for Fast, the scalar reference for Scalar.
 */
const fastpath::ReplayEngine &replayEngineFor(Backend backend);

/** Where DGIPPR duel bookkeeping lives in a shared cache. */
enum class DuelScope
{
    Global,  ///< one tournament over all cores (single-core semantics)
    PerCore, ///< per-core leader tables, selectors and winners
};

/** Parse "global" or "per-core"; fatal otherwise. */
DuelScope parseDuelScope(const std::string &text);

/** Stable display name. */
const char *duelScopeName(DuelScope scope);

/** Everything that shapes one shared-LLC run. */
struct RunParams
{
    CacheConfig llc = CacheConfig::benchLlc();
    fastpath::ReplaySpec policy;
    Schedule schedule = Schedule::RoundRobin;
    DuelScope duelScope = DuelScope::Global;
    PartitionConfig partition;
    LatencyModel latency;
    /** Leading fraction of every core's stream used as warmup. */
    double warmupFraction = 1.0 / 3.0;
    Backend backend = Backend::Fast;
    /** Replay per-core solo baselines and fill RunResult::fairness
     *  (skip for oracle runs that only compare shared stats). */
    bool computeSolo = true;
};

/** One core's outcome. */
struct CoreResult
{
    std::string workload;
    uint64_t weight = 1;
    /** Whole-trace instructions of the core's stream. */
    uint64_t instructions = 0;
    /** Instructions covered by the measured (post-warmup) window. */
    uint64_t measuredInstructions = 0;
    /** Shared-run statistics (per-core bank + duel state). */
    fastpath::ReplayStats stats;
    /** Solo-run statistics (same trace, same warmup boundary). */
    fastpath::ReplayStats solo;
};

/** One shared-LLC run's outcome. */
struct RunResult
{
    std::vector<CoreResult> cores;
    /** Sums of the per-core banks. */
    fastpath::CounterBank measured;
    fastpath::CounterBank total;
    FairnessReport fairness;
    /** Final per-core way counts (empty when unpartitioned). */
    std::vector<unsigned> wayCounts;
    /** Utility repartitions performed. */
    uint64_t repartitions = 0;
};

/**
 * Replay @p streams through one shared LLC under @p params.  Fatal
 * when there are no streams, the policy does not run on the geometry,
 * the warmup fraction lies outside [0, 1], or a stream has no trace.
 */
RunResult runSharedLlc(const std::vector<CoreStream> &streams,
                       const RunParams &params);

/**
 * The single-core reference path of the bit-identity gate: replay
 * @p stream through the existing single-core ReplayEngine (scalar or
 * fast per params.backend) and package the result as a 1-core
 * RunResult — same warmup arithmetic, same fairness derivation, no
 * shared-model code anywhere on the path.  A 1-core runSharedLlc with
 * no partitioning must equal this bit-for-bit.
 */
RunResult runSingleCoreReference(const CoreStream &stream,
                                 const RunParams &params);

} // namespace gippr::multicore

#endif // GIPPR_SIM_MULTICORE_ENGINE_HH_
