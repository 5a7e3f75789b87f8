/**
 * @file
 * Online dynamic policy selection: configuration and result types.
 *
 * The selector runs a bandit (epsilon-greedy or discounted-UCB) over
 * a library of replacement policies on a live access stream.  One
 * "main" cache model per arm serves traffic while its arm is chosen;
 * a per-arm "shadow" model is fed only the accesses landing in a
 * LeaderSets-sampled subset of sets (the DIP trick) so every arm
 * earns an always-on, off-policy reward — its sampled-set demand hit
 * rate per epoch — without replaying the whole stream N times.  All
 * arms shadow the SAME sampled sets, so rewards compare policies
 * rather than the luck of which sets each arm drew.
 * Decisions apply at epoch boundaries only, which keeps the fastpath
 * kernels branch-free between boundaries; a drift detector (epoch
 * miss-rate change-point plus working-set signature overlap) resets
 * the bandit so the selector re-explores after a workload shift.
 *
 * Determinism contract: for a fixed stream, library and SelectConfig
 * the SelectResult is bit-identical across runs and across the scalar
 * and fastpath backends (tests/test_select.cc); with a single-policy
 * library the selector degenerates to a static replay of that policy
 * and its counters are bit-identical to the replay engines'.
 */

#ifndef GIPPR_SIM_SELECT_SELECT_HH_
#define GIPPR_SIM_SELECT_SELECT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fastpath/replay_spec.hh"
#include "sim/multicore/engine.hh"
#include "sim/policy_zoo.hh"

namespace gippr::select
{

/** Bandit flavour driving the arm choice. */
enum class BanditKind
{
    EpsilonGreedy, ///< explore with fixed probability, else greedy
    DUcb,          ///< discounted UCB over the shadow rewards
};

/** Parse "ducb" or "egreedy"; fatal otherwise. */
BanditKind parseBanditKind(const std::string &text);

/** Stable display name. */
const char *banditKindName(BanditKind kind);

/** Which per-arm cache model implementation serves the run: Fast is
 *  a packed SoaCacheModel per arm, Scalar a SetAssocCache + policy
 *  object per arm. */
using Backend = multicore::Backend;
using multicore::backendName;
using multicore::parseBackend;

/**
 * Everything a caller sets for one selector run.  The rest is fixed:
 * the bandit's discount, confidence width, exploration probability
 * and switch margin (bandit.cc: kGamma, kUcbC, kEpsilon,
 * kSwitchMargin), the drift detector's EWMA weight and triggers
 * (drift.cc: kAlpha, kZThreshold, kMinDelta, kOverlapDrop,
 * kWarmEpochs) and the leader sets requested per arm (engine.cc:
 * kLeadersPerArm).  Drift detection runs whenever the library has
 * two or more arms.
 */
struct SelectConfig
{
    BanditKind kind = BanditKind::DUcb;
    /** Accesses between decisions. */
    uint64_t epochLength = 4096;
    /** Seed of the bandit's exploration stream (epsilon-greedy). */
    uint64_t seed = 1;

    bool operator==(const SelectConfig &o) const = default;
};

/** One epoch of the decision timeline. */
struct EpochRecord
{
    /** Arm that served this epoch. */
    uint32_t chosen = 0;
    /** Drift reset fired at the boundary closing this epoch. */
    uint8_t drift = 0;
    uint64_t accesses = 0;
    uint64_t demandAccesses = 0;
    uint64_t demandMisses = 0;

    bool operator==(const EpochRecord &o) const = default;
};

/** Outcome of one selector run. */
struct SelectResult
{
    /** Arm display names, library order. */
    std::vector<std::string> arms;
    /** Post-warmup counters of the served (main) stream. */
    fastpath::CounterBank measured;
    /** Whole-stream counters. */
    fastpath::CounterBank total;
    /** Per-core post-warmup / whole-stream banks (size = cores; a
     *  single-trace run has exactly one core). */
    std::vector<fastpath::CounterBank> coreMeasured;
    std::vector<fastpath::CounterBank> coreTotal;
    /** Decision timeline, one entry per (possibly partial) epoch. */
    std::vector<EpochRecord> timeline;
    /** Epochs served per arm. */
    std::vector<uint64_t> epochsChosen;
    /** Whole-run shadow (sampled-set) demand traffic per arm; the
     *  sample is shared, so accesses match across arms. */
    std::vector<uint64_t> shadowDemandAccesses;
    std::vector<uint64_t> shadowDemandMisses;
    uint64_t switches = 0;
    uint64_t driftResets = 0;

    bool operator==(const SelectResult &o) const = default;

    /** Demand miss rate of the measured region. */
    double measuredDemandMissRate() const;
};

/**
 * Parse a comma-separated policy library ("LRU,LIP,PLRU,GIPPR:..."),
 * each entry a policy_zoo name.  Fatal on empty or unknown entries.
 */
std::vector<PolicyDef> parseLibrary(const std::string &text);

/** Default library the CLIs select over. */
const char *defaultLibrarySpec();

/** "+"-joined display names ("LRU+LIP+PLRU"). */
std::string libraryName(const std::vector<PolicyDef> &library);

} // namespace gippr::select

#endif // GIPPR_SIM_SELECT_SELECT_HH_
