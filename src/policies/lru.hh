/**
 * @file
 * True least-recently-used replacement (the paper's baseline).
 */

#ifndef GIPPR_POLICIES_LRU_HH_
#define GIPPR_POLICIES_LRU_HH_

#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "policies/recency_stack.hh"
#include "util/bitops.hh"

namespace gippr
{

/**
 * Full LRU over a recency stack: hits and fills promote to MRU,
 * victims come from the LRU position.  Costs k*log2(k) bits per set
 * (64 bits/set at 16 ways), the paper's reference cost.
 */
class LruPolicy : public ReplacementPolicy
{
  public:
    explicit LruPolicy(const CacheConfig &config);

    unsigned victim(const AccessInfo &info) override;
    void onInsert(unsigned way, const AccessInfo &info) override;
    void onHit(unsigned way, const AccessInfo &info) override;
    void onInvalidate(uint64_t set, unsigned way) override;
    std::optional<unsigned> recencyPosition(uint64_t set,
                                            unsigned way) const override;

    std::string name() const override { return "LRU"; }

    size_t
    stateBitsPerSet() const override
    {
        return static_cast<size_t>(ways_) * ceilLog2(ways_);
    }

  private:
    unsigned ways_;
    std::vector<RecencyStack> stacks_;
};

} // namespace gippr

#endif // GIPPR_POLICIES_LRU_HH_
