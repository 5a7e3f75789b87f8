/**
 * @file
 * The selector replay engine.
 *
 * runSelect() replays one LLC trace while a bandit picks the serving
 * policy at epoch boundaries; runSelectShared() is the multicore
 * counterpart, merging per-core streams through the deterministic
 * Interleaver (same discipline as multicore::runSharedLlc) with
 * per-core warmup snapshots and per-core counter attribution.  With
 * one core, runSelectShared() and runSelect() traverse different
 * merge code but must produce bit-identical SelectResults — the
 * 1-core gate mirrored from the multicore engine.
 *
 * Backends: one chunk loop, templated over the arm model, serves
 * both — a packed SoaCacheModel per arm (Fast) or its scalar twin, a
 * fastpath::ScalarModel running PolicyDef::make per arm (Scalar,
 * which also runs arms with no fast spec and hands them each
 * record's pc).  Every reported
 * counter is accumulated in that loop from per-access outcomes, never
 * read from model internals, so scalar/fast bit-identity follows
 * inductively from the per-model equivalence the fastpath oracle
 * already proves.  Fast serves only when every arm has a fast spec
 * the packed model supports at the geometry; otherwise the whole run
 * uses Scalar, and resolveBackend() reports which one served.
 */

#ifndef GIPPR_SIM_SELECT_ENGINE_HH_
#define GIPPR_SIM_SELECT_ENGINE_HH_

#include <string>
#include <vector>

#include "cache/config.hh"
#include "sim/multicore/mix.hh"
#include "sim/multicore/schedule.hh"
#include "sim/select/select.hh"
#include "trace/trace.hh"

namespace gippr::select
{

/**
 * Backend that will actually serve: @p requested, downgraded to
 * Scalar unless every arm of @p library packs at @p llc.
 */
Backend resolveBackend(const std::vector<PolicyDef> &library,
                       const CacheConfig &llc, Backend requested);

/**
 * Replay @p trace under the selector; records with index >= @p warmup
 * are measured (the replayTrace convention).
 */
SelectResult runSelect(const std::vector<PolicyDef> &library,
                       const SelectConfig &cfg, const CacheConfig &llc,
                       const Trace &trace, size_t warmup,
                       Backend backend = Backend::Fast);

/**
 * Replay @p streams merged by @p schedule through one selector-run
 * shared LLC; the leading @p warmup_fraction of every core's stream
 * is warmup (the multicore convention).
 */
SelectResult runSelectShared(
    const std::vector<multicore::CoreStream> &streams,
    multicore::Schedule schedule,
    const std::vector<PolicyDef> &library, const SelectConfig &cfg,
    const CacheConfig &llc, double warmup_fraction,
    Backend backend = Backend::Fast);

/** The merged reference order @p schedule produces (oracle replays
 *  and the 1-core byte-compare gate replay this). */
Trace mergedTrace(const std::vector<multicore::CoreStream> &streams,
                  multicore::Schedule schedule);

/** One static policy's whole-run outcome (regret baseline). */
struct StaticOracleRow
{
    std::string name;
    fastpath::CounterBank measured;
};

/**
 * Replay @p trace statically under every arm of @p library (via the
 * replay engines; arms without a fast spec go through the scalar
 * simulator on either backend).
 */
std::vector<StaticOracleRow>
staticOracle(const std::vector<PolicyDef> &library,
             const CacheConfig &llc, const Trace &trace, size_t warmup,
             Backend backend = Backend::Fast);

/** Row with the fewest measured demand misses (lowest index ties). */
size_t bestStaticIndex(const std::vector<StaticOracleRow> &rows);

} // namespace gippr::select

#endif // GIPPR_SIM_SELECT_ENGINE_HH_
