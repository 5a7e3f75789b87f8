/**
 * @file
 * Scalar reference model for the shared-LLC differential oracle.
 *
 * ScalarSharedLlc implements the same shared-cache transition as
 * fastpath::SoaCacheModel's domain/mask access — per-access duel
 * domain, per-access way mask — but over the production scalar data
 * structures: PlruTree / RecencyStack per set, LeaderSets +
 * TournamentSelector for dueling, none of the packed-state tricks.
 * The two are developed against the same written semantics but share
 * no state layout, which is what makes the lock-step scalar-vs-fast
 * oracle in tests/test_multicore_sim.cc meaningful for interleaved
 * streams (the same discipline the single-core scalar replay keeps).
 *
 * It exposes the packed model's shared-LLC interface — access()
 * returning the same Step, duelStats() — so the engine's replay loop,
 * which owns the per-core counters, is templated over either backend.
 */

#ifndef GIPPR_SIM_MULTICORE_REFERENCE_MODEL_HH_
#define GIPPR_SIM_MULTICORE_REFERENCE_MODEL_HH_

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"
#include "core/plru_tree.hh"
#include "policies/recency_stack.hh"
#include "policies/set_dueling.hh"
#include "sim/fastpath/replay_spec.hh"
#include "sim/fastpath/soa_cache.hh"

namespace gippr::multicore
{

/** Scalar shared LLC (oracle for the packed model's shared access). */
class ScalarSharedLlc
{
  public:
    using Step = fastpath::SoaCacheModel::Step;

    /** @p domains duel domains (>= 1), rotated as the packed model's. */
    ScalarSharedLlc(const fastpath::ReplaySpec &spec,
                    const CacheConfig &config, unsigned domains);

    /** One access in duel domain @p domain, filling within @p mask. */
    Step access(uint64_t set, uint64_t tag, AccessType type,
                unsigned domain, uint64_t mask);

    /** Domain @p domain's duel state into @p out (Dgippr only). */
    void duelStats(unsigned domain, fastpath::ReplayStats &out) const;

    uint64_t sets() const { return sets_; }
    unsigned assoc() const { return assoc_; }

    uint64_t setIndex(uint64_t byte_addr) const;
    uint64_t tagOf(uint64_t byte_addr) const;

  private:
    enum class Family : uint8_t
    {
        Recency,
        Plru,
        TreeIpv,
    };

    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
    };

    unsigned ipvIndexFor(unsigned domain, uint64_t set) const;
    int findWay(uint64_t set, uint64_t tag) const;
    unsigned victimWay(uint64_t set, uint64_t mask) const;

    AddressDecode decode_;
    uint64_t sets_;
    unsigned assoc_;

    Family family_;
    bool duel_ = false;
    std::vector<Ipv> ipvs_;

    std::vector<Line> lines_;          // sets * assoc
    std::vector<RecencyStack> stacks_; // Recency family
    std::vector<PlruTree> trees_;      // tree families

    std::vector<std::vector<int>> owners_;
    std::vector<TournamentSelector> selectors_;
    std::vector<unsigned> winner_;
    std::vector<std::vector<uint64_t>> leaderMisses_;

    uint64_t fullMask_;
};

} // namespace gippr::multicore

#endif // GIPPR_SIM_MULTICORE_REFERENCE_MODEL_HH_
