/**
 * @file
 * DGIPPR — dynamic GIPPR (paper, Section 3.5).
 *
 * Several offline-evolved IPVs duel at runtime: each IPV owns a group
 * of leader sets that always use it; saturating counters tally leader
 * misses; follower sets use the currently winning IPV.  With two IPVs
 * this is Qureshi-style single-counter set-dueling (2-DGIPPR); with
 * four it is Loh-style multi-set-dueling with two pair counters and a
 * meta counter (4-DGIPPR) — three 11-bit counters for the whole cache,
 * the paper's "33 bits added to the entire microprocessor".  Only one
 * set of PseudoLRU bits is kept per set regardless of the IPV count.
 *
 * A shared cache may run several duel domains (per-core duels): each
 * domain has its own rotated leader table (LeaderSets::domainOwners),
 * tournament and leader-miss counts, and AccessInfo::domain picks the
 * domain of each access.  One domain is the paper's policy.
 */

#ifndef GIPPR_CORE_DGIPPR_HH_
#define GIPPR_CORE_DGIPPR_HH_

#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "core/ipv.hh"
#include "core/plru_tree.hh"
#include "policies/set_dueling.hh"

namespace gippr
{

/** Set-dueling between multiple GIPPR vectors. */
class DgipprPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param config        cache geometry
     * @param ipvs          2^m candidate vectors (paper uses 2 or 4)
     * @param leaders       leader sets per vector
     * @param counter_bits  PSEL width (paper: 11)
     * @param domains       duel domains (>= 1)
     */
    DgipprPolicy(const CacheConfig &config, std::vector<Ipv> ipvs,
                 unsigned leaders = 32, unsigned counter_bits = 11,
                 unsigned domains = 1);

    unsigned victim(const AccessInfo &info) override;
    void onMiss(const AccessInfo &info) override;
    void onInsert(unsigned way, const AccessInfo &info) override;
    void onHit(unsigned way, const AccessInfo &info) override;
    void onInvalidate(uint64_t set, unsigned way) override;
    std::optional<unsigned> recencyPosition(uint64_t set,
                                            unsigned way) const override;

    std::string name() const override;

    /**
     * Exports domain 0's set-dueling state: one leader-miss counter
     * per vector ("<prefix>.duel.leader_misses.<i>") plus the
     * follower vector as a gauge ("<prefix>.duel.winner").
     */
    void attachTelemetry(telemetry::MetricRegistry &registry,
                         const std::string &prefix) override;

    size_t
    stateBitsPerSet() const override
    {
        return trees_.empty() ? 0 : trees_.front().numBits();
    }

    size_t
    globalStateBits() const override
    {
        return domains_.size() * domains_.front().selector.stateBits();
    }

    /** Vector domain @p domain's follower sets use now. */
    unsigned
    currentWinner(unsigned domain = 0) const
    {
        return domains_[domain].winner;
    }

    /** Domain @p domain's tournament (backend-equivalence checks). */
    const TournamentSelector &
    selector(unsigned domain = 0) const
    {
        return domains_[domain].selector;
    }

    /** Domain @p domain's demand leader-set misses per vector. */
    const std::vector<uint64_t> &
    leaderMisses(unsigned domain = 0) const
    {
        return domains_[domain].leaderMisses;
    }

    /** Per-set tree accessor (test / verification aid). */
    const PlruTree &tree(uint64_t set) const { return trees_[set]; }

  private:
    /** One duel domain's tournament. */
    struct Domain
    {
        TournamentSelector selector;
        unsigned winner = 0;
        std::vector<uint64_t> leaderMisses;
    };

    /** Leader owner of the set @p info touches, in its domain. */
    int ownerOf(const AccessInfo &info) const;

    /** IPV governing the set @p info touches, in its domain. */
    const Ipv &ipvFor(const AccessInfo &info) const;

    uint64_t sets_;
    std::vector<Ipv> ipvs_;
    std::vector<PlruTree> trees_;
    /** LeaderSets::domainOwners: entry domain * sets + set. */
    std::vector<int8_t> owners_;
    std::vector<Domain> domains_;
    /** Per-vector leader-miss counters (empty until attached). */
    std::vector<telemetry::Counter *> duelMisses_;
    telemetry::Gauge *duelWinner_ = nullptr;
};

} // namespace gippr

#endif // GIPPR_CORE_DGIPPR_HH_
