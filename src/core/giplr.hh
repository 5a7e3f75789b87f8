/**
 * @file
 * GIPLR — Genetic Insertion and Promotion for LRU Replacement
 * (paper, Section 2).
 *
 * A true-LRU recency stack driven by an arbitrary IPV: a hit at
 * position i moves the block to position V[i]; an incoming block
 * replaces the victim at position k-1 and then moves to V[k].  With
 * the all-zero IPV this is exactly LRU (a property the test suite
 * checks).
 */

#ifndef GIPPR_CORE_GIPLR_HH_
#define GIPPR_CORE_GIPLR_HH_

#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "core/ipv.hh"
#include "policies/recency_stack.hh"
#include "util/bitops.hh"

namespace gippr
{

/** IPV-driven true-LRU stack replacement. */
class GiplrPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param config  cache geometry
     * @param ipv     vector with ipv.ways() == config.assoc
     */
    GiplrPolicy(const CacheConfig &config, Ipv ipv);

    unsigned victim(const AccessInfo &info) override;
    void onInsert(unsigned way, const AccessInfo &info) override;
    void onHit(unsigned way, const AccessInfo &info) override;
    void onInvalidate(uint64_t set, unsigned way) override;
    std::optional<unsigned> recencyPosition(uint64_t set,
                                            unsigned way) const override;

    std::string name() const override { return "GIPLR"; }

    size_t
    stateBitsPerSet() const override
    {
        return static_cast<size_t>(ways_) * ceilLog2(ways_);
    }

    const Ipv &ipv() const { return ipv_; }

  private:
    unsigned ways_;
    Ipv ipv_;
    std::vector<RecencyStack> stacks_;
};

} // namespace gippr

#endif // GIPPR_CORE_GIPLR_HH_
