/**
 * @file
 * GIPPR — Genetic Insertion and Promotion for PseudoLRU Replacement
 * (paper, Section 3; the main contribution).
 *
 * A PseudoLRU tree per set, driven by an IPV: on a hit, the block's
 * PLRU-stack position i is read (Fig. 7) and the path bits rewritten
 * to put it at position V[i] (Fig. 9); an incoming block is written to
 * position V[k].  Rewriting a path moves *other* blocks' positions in
 * a more drastic way than the true-LRU shifts — which is why GIPPR
 * vectors are evolved specifically for PLRU dynamics.  The victim is
 * the all-ones-position PLRU block.  Storage is exactly PseudoLRU's:
 * k-1 bits per set, under one bit per block.
 */

#ifndef GIPPR_CORE_GIPPR_HH_
#define GIPPR_CORE_GIPPR_HH_

#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "core/ipv.hh"
#include "core/plru_tree.hh"

namespace gippr
{

/** IPV-driven tree-PseudoLRU replacement. */
class GipprPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param config  cache geometry (power-of-two associativity)
     * @param ipv     vector with ipv.ways() == config.assoc
     */
    GipprPolicy(const CacheConfig &config, Ipv ipv);

    unsigned victim(const AccessInfo &info) override;
    void onInsert(unsigned way, const AccessInfo &info) override;
    void onHit(unsigned way, const AccessInfo &info) override;
    void onInvalidate(uint64_t set, unsigned way) override;
    std::optional<unsigned> recencyPosition(uint64_t set,
                                            unsigned way) const override;

    std::string name() const override { return "GIPPR"; }

    size_t
    stateBitsPerSet() const override
    {
        return trees_.empty() ? 0 : trees_.front().numBits();
    }

    const Ipv &ipv() const { return ipv_; }

    /** Per-set tree accessor (test aid). */
    const PlruTree &tree(uint64_t set) const { return trees_[set]; }

  private:
    Ipv ipv_;
    std::vector<PlruTree> trees_;
};

} // namespace gippr

#endif // GIPPR_CORE_GIPPR_HH_
