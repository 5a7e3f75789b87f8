/**
 * @file
 * Replay specifications and statistics for the fast replay engine.
 *
 * A ReplaySpec is a *value* description of a packable policy — the
 * recency family (LRU, LIP, GIPLR), the tree family (PLRU, GIPPR,
 * 2-/4-DGIPPR), the RRIP family (SRRIP, BRRIP, DRRIP, RRIP-IPV) and
 * PDP: enough to build either the scalar ReplacementPolicy object or
 * the packed structure-of-arrays model, so the two backends are
 * guaranteed to simulate the same policy.  ReplayStats carries two
 * counter banks — the measured (post-warmup) region that experiments
 * report, and the whole-trace totals that mirror the live telemetry
 * counters — plus
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
#include "policies/pdp.hh"
#include "policies/rrip.hh"

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
    Rrip,   ///< SRRIP / BRRIP / DRRIP, or RRIP-IPV with one vector
    Pdp,    ///< protecting-distance policy (non-bypass)
};

/** Value description of a replayable policy. */
struct ReplaySpec
{
    FastPolicyKind kind = FastPolicyKind::Lru;
    /**
     * Candidate vectors: empty for Lru/Lip/Plru (derived from the
     * geometry), exactly one for Giplr/Gippr, 2^m for Dgippr.  An
     * Rrip spec with one vector over the 2^rrpvBits levels is
     * RRIP-IPV (static insertion); plain RRIP has none.
     */
    std::vector<Ipv> ipvs;
    /** Leader sets per vector (Dgippr, DRRIP; clamped to geometry). */
    unsigned leaders = 32;
    /** PSEL width in bits (Dgippr only; DRRIP's is fixed at 11). */
    unsigned counterBits = 11;

    /** RRPV width (Rrip only). */
    unsigned rrpvBits = 2;
    /** Insertion mode: static, bimodal or dueling (Rrip only). */
    RripPolicy::Mode rripMode = RripPolicy::Mode::Static;
    /** BRRIP inserts "long" once per this many fills (Rrip only). */
    unsigned epsilonInv = 32;
    /** Seed of BRRIP's bimodal throttle (Rrip only). */
    uint64_t seed = 1;

    /** Sampler, solver and counter parameters (Pdp only). */
    PdpParams pdp;

    /** Display name matching the scalar policy's name(). */
    std::string name() const;

    bool operator==(const ReplaySpec &o) const = default;
};

/** Spec builders. */
ReplaySpec lruSpec();
ReplaySpec lipSpec();
ReplaySpec giplrSpec(Ipv ipv);
ReplaySpec plruSpec();
ReplaySpec gipprSpec(Ipv ipv);
ReplaySpec dgipprSpec(std::vector<Ipv> ipvs, unsigned leaders = 32,
                      unsigned counter_bits = 11);
/** SRRIP/BRRIP/DRRIP with RripPolicy's parameters and defaults. */
ReplaySpec rripSpec(RripPolicy::Mode mode, unsigned rrpv_bits = 2,
                    unsigned epsilon_inv = 32, unsigned leaders = 32,
                    uint64_t seed = 1);
/** RRIP-IPV: @p ipv over the 2^@p rrpv_bits RRPV levels. */
ReplaySpec rripIpvSpec(Ipv ipv, unsigned rrpv_bits = 2);
ReplaySpec pdpSpec(PdpParams params = {});

/**
 * True when the policy's global state couples the sets, so one model
 * must see the whole trace in order: Dgippr's tournament, DRRIP's
 * PSEL, BRRIP's throttle RNG (and DRRIP's, which draws for its BRRIP
 * fills), PDP's sampler, solver and epoch.  Such specs are never
 * set-sharded or bucket-reordered; SRRIP and RRIP-IPV are.
 */
bool couplesSets(const ReplaySpec &spec);

/**
 * True when the policy keeps a total recency order per set, which a
 * way-masked (partitioned) fill needs to pick the masked way closest
 * to eviction: the recency and tree families, not RRIP or PDP.
 */
bool keepsRecencyOrder(const ReplaySpec &spec);

/** One bank of hit/miss counters (no bypasses: no packable policy
 *  ever bypasses). */
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
    /** Final follower vector (Dgippr) or insertion policy (DRRIP:
     *  0 SRRIP, 1 BRRIP); 0 otherwise. */
    unsigned finalWinner = 0;
    /** Raw PSEL values, tournament level-major (Dgippr, DRRIP; empty
     *  otherwise). */
    std::vector<uint64_t> duelCounters;
    /** Demand leader-set misses per vector over the whole trace
     *  (Dgippr; empty otherwise, DRRIP included, whose scalar policy
     *  keeps no such count) — mirrors the scalar policy's
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
 * duels); DRRIP keeps one duel whatever the domain, as RripPolicy
 * does, and the other kinds have no duel state.
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
 * a Dgippr or DRRIP spec (the scalar twin of
 * SoaCacheModel::duelStats); DRRIP reports its one duel for every
 * domain and no leader misses.
 */
void scalarDuelStats(const ReplaySpec &spec,
                     const ReplacementPolicy &policy, unsigned domain,
                     ReplayStats &out);

} // namespace gippr::fastpath

#endif // GIPPR_SIM_FASTPATH_REPLAY_SPEC_HH_
