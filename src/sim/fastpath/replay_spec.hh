/**
 * @file
 * Replay specifications and statistics for the fast replay engine.
 *
 * A ReplaySpec is a *value* description of one of the seven core
 * policies (LRU, LIP, GIPLR, PLRU, GIPPR, 2-/4-DGIPPR): enough to
 * build either the scalar ReplacementPolicy object or the packed
 * structure-of-arrays model, so the two backends are guaranteed to
 * simulate the same policy.  ReplayStats carries two counter banks —
 * the measured (post-warmup) region that experiments report, and the
 * whole-trace totals that mirror the live telemetry counters — plus
 * the final set-dueling state, so "same duel outcome" is part of the
 * backend-equivalence contract, not just miss counts.
 */

#ifndef GIPPR_SIM_FASTPATH_REPLAY_SPEC_HH_
#define GIPPR_SIM_FASTPATH_REPLAY_SPEC_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/replacement.hh"
#include "core/ipv.hh"

namespace gippr::fastpath
{

/** Policy families the fast backend knows how to pack. */
enum class FastPolicyKind : uint8_t
{
    Lru,    ///< true-LRU recency stack
    Lip,    ///< LRU with LRU-insertion (all-zero IPV, V[k] = k-1)
    Giplr,  ///< recency stack driven by an arbitrary IPV
    Plru,   ///< classic tree PseudoLRU (promote-to-MRU)
    Gippr,  ///< tree PseudoLRU driven by an arbitrary IPV
    Dgippr, ///< set-dueling over 2^m GIPPR vectors
};

/** Value description of a replayable policy. */
struct ReplaySpec
{
    FastPolicyKind kind = FastPolicyKind::Lru;
    /**
     * Candidate vectors: empty for Lru/Lip/Plru (derived from the
     * geometry), exactly one for Giplr/Gippr, 2^m for Dgippr.
     */
    std::vector<Ipv> ipvs;
    /** Leader sets per vector (Dgippr only; clamped to geometry). */
    unsigned leaders = 32;
    /** PSEL width in bits (Dgippr only). */
    unsigned counterBits = 11;

    /** Display name matching the scalar policy's name(). */
    std::string name() const;
};

/** Spec builders for the seven core policies. */
ReplaySpec lruSpec();
ReplaySpec lipSpec();
ReplaySpec giplrSpec(Ipv ipv);
ReplaySpec plruSpec();
ReplaySpec gipprSpec(Ipv ipv);
ReplaySpec dgipprSpec(std::vector<Ipv> ipvs, unsigned leaders = 32,
                      unsigned counter_bits = 11);

/** One bank of hit/miss counters (no bypasses: none of the seven
 *  core policies ever bypasses). */
struct CounterBank
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
    uint64_t demandAccesses = 0;
    uint64_t demandMisses = 0;

    CounterBank &operator+=(const CounterBank &o);
    /** Field-wise difference (a bank minus its warmup snapshot). */
    CounterBank operator-(const CounterBank &o) const;
    bool operator==(const CounterBank &o) const = default;
};

/** @p stats as a counter bank (bypasses dropped). */
CounterBank toBank(const CacheStats &stats);

/** Outcome of replaying one trace under one spec. */
struct ReplayStats
{
    /** Post-warmup region (what replayTrace + clearStats reports). */
    CounterBank measured;
    /** Whole trace (what live telemetry counters accumulate). */
    CounterBank total;
    /** Final follower vector (Dgippr; 0 otherwise). */
    unsigned finalWinner = 0;
    /** Raw PSEL values, tournament level-major (Dgippr; empty
     *  otherwise). */
    std::vector<uint64_t> duelCounters;
    /** Demand leader-set misses per vector over the whole trace
     *  (Dgippr; empty otherwise) — mirrors the scalar policy's
     *  "duel.leader_misses.<i>" telemetry counters. */
    std::vector<uint64_t> leaderMisses;

    bool operator==(const ReplayStats &o) const = default;

    /** Measured bank as the cache-model statistics struct. */
    CacheStats toCacheStats() const;

    /** Human-readable one-line rendering (divergence dumps). */
    std::string toString() const;
};

/**
 * Build the scalar ReplacementPolicy object for @p spec — the single
 * source of truth tying specs to production policy classes.  Dgippr
 * policies get @p domains duel domains (a shared LLC's per-core
 * duels); the other kinds have no duel state.
 */
std::unique_ptr<ReplacementPolicy>
makeScalarPolicy(const ReplaySpec &spec, const CacheConfig &config,
                 unsigned domains = 1);

/**
 * The PolicyFactory of a spec: builds makeScalarPolicy(spec, config).
 * A factory built this way still names its spec, which specOf()
 * reads back, so a caller handed only the factory can run the spec
 * on the packed model instead.
 */
struct SpecFactory
{
    ReplaySpec spec;

    std::unique_ptr<ReplacementPolicy>
    operator()(const CacheConfig &config) const
    {
        return makeScalarPolicy(spec, config);
    }
};

/** @p factory's spec if it holds a SpecFactory, else nullptr (any
 *  other callable, including a lambda around a SpecFactory). */
const ReplaySpec *specOf(const PolicyFactory &factory);

/**
 * Write duel domain @p domain's state — final winner, PSEL counters,
 * leader misses — of @p policy, which makeScalarPolicy(@p spec) built,
 * into @p out's duel fields.  Leaves them untouched unless @p spec is
 * a Dgippr spec (the scalar twin of SoaCacheModel::duelStats).
 */
void scalarDuelStats(const ReplaySpec &spec,
                     const ReplacementPolicy &policy, unsigned domain,
                     ReplayStats &out);

} // namespace gippr::fastpath

#endif // GIPPR_SIM_FASTPATH_REPLAY_SPEC_HH_
