/**
 * @file
 * Set-dueling infrastructure (Qureshi et al., ISCA 2007; Loh, MICRO
 * 2009 for the multi-policy tournament).
 *
 * A small number of "leader" sets permanently run each candidate
 * policy; saturating counters tally leader-set misses, and the
 * remaining "follower" sets adopt whichever policy is missing least.
 */

#ifndef GIPPR_POLICIES_SET_DUELING_HH_
#define GIPPR_POLICIES_SET_DUELING_HH_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/sat_counter.hh"

namespace gippr
{

/**
 * Deterministic leader-set assignment.
 *
 * The set space is divided into `leadersPerPolicy` constituencies; in
 * constituency c, policy p leads the set at offset (5*c + p) mod C
 * (C = constituency size).  The multiplier spreads the leaders across
 * set offsets so they do not all alias the same workload stride, in
 * the spirit of the DIP paper's complement-select.
 */
class LeaderSets
{
  public:
    /**
     * @param sets                total sets in the cache (power of two)
     * @param policies            number of dueling policies (>= 2)
     * @param leaders_per_policy  leader sets per policy
     */
    LeaderSets(uint64_t sets, unsigned policies,
               unsigned leaders_per_policy = 32);

    /**
     * Policy index leading @p set, or kFollower for follower sets.
     */
    int owner(uint64_t set) const;

    static constexpr int kFollower = -1;

    /**
     * Rotation stride between duel domains' leader tables: domain d
     * gives set s the owner this map gives set
     * (s + d * kLeaderSetRotate) mod sets.  Any odd constant
     * decorrelates the domains' sampled sets; domain 0's rotation is
     * zero, so a one-domain table is this map exactly.
     */
    static constexpr uint64_t kLeaderSetRotate = 97;

    /**
     * Owners of every set in @p domains duel domains (a shared
     * cache's per-core duels), flat and domain-major: entry
     * d * sets + s is set s's owner in domain d.
     */
    std::vector<int8_t> domainOwners(unsigned domains) const;

    unsigned policies() const { return policies_; }
    unsigned leadersPerPolicy() const { return leadersPerPolicy_; }

  private:
    uint64_t sets_;
    unsigned policies_;
    unsigned leadersPerPolicy_;
    std::vector<int8_t> owner_; // set -> policy or kFollower
};

/**
 * Clamp a requested leader-set count to what a cache geometry can
 * host: the largest power of two not exceeding either the request or
 * sets/policies (so every constituency can seat one leader per
 * policy), and at least one.  Policies use this so the paper's
 * default of 32 leaders degrades gracefully on small test caches.
 */
unsigned clampLeaders(uint64_t sets, unsigned policies,
                      unsigned requested);

/**
 * Tournament selector over N = 2^m candidate policies.
 *
 * N == 2 degenerates to the single PSEL counter of DIP.  N == 4 is
 * Loh's multi-set-dueling: one counter per pair plus one meta counter
 * (three 11-bit counters total, matching the paper's Section 3.6
 * overhead accounting).  Larger powers of two build a deeper
 * tournament, used by the vector-count ablation.
 */
class TournamentSelector
{
  public:
    /**
     * @param policies      number of candidates (power of two, >= 2)
     * @param counter_bits  PSEL width (paper: 11)
     */
    explicit TournamentSelector(unsigned policies,
                                unsigned counter_bits = 11);

    /** Record one leader-set miss attributed to policy @p p. */
    void recordMiss(unsigned p);

    /** Currently winning policy for follower sets. */
    unsigned winner() const;

    /**
     * Raw PSEL counter values, tournament level-major (level 0's
     * pair counters first, the meta counter last).  This is direct
     * state access — unlike the telemetry mirror, it works in
     * GIPPR_DISABLE_TELEMETRY builds, so backend-equivalence checks
     * can compare duel outcomes exactly.
     */
    std::vector<uint64_t> counterValues() const;

    unsigned policies() const { return policies_; }

    /** Total PSEL storage in bits (the paper's "33 bits" for N=4). */
    std::size_t stateBits() const;

  private:
    unsigned policies_;
    unsigned counterBits_;
    // Level l has policies_ / 2^(l+1) counters; counters_[0] duels
    // adjacent pairs, the last level is the meta counter.
    std::vector<std::vector<DuelCounter>> levels_;
};

} // namespace gippr

#endif // GIPPR_POLICIES_SET_DUELING_HH_
