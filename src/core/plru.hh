/**
 * @file
 * Classic tree-based PseudoLRU replacement (Handy 1993), GIPPR's
 * intellectual parent: insert and promote to PMRU, evict the PLRU
 * block.  15 bits per 16-way set.
 */

#ifndef GIPPR_CORE_PLRU_HH_
#define GIPPR_CORE_PLRU_HH_

#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "core/plru_tree.hh"

namespace gippr
{

/** Tree PseudoLRU: PMRU insertion and promotion, PLRU victim. */
class PlruPolicy : public ReplacementPolicy
{
  public:
    explicit PlruPolicy(const CacheConfig &config);

    unsigned victim(const AccessInfo &info) override;
    void onInsert(unsigned way, const AccessInfo &info) override;
    void onHit(unsigned way, const AccessInfo &info) override;
    void onInvalidate(uint64_t set, unsigned way) override;
    std::optional<unsigned> recencyPosition(uint64_t set,
                                            unsigned way) const override;

    std::string name() const override { return "PLRU"; }

    size_t
    stateBitsPerSet() const override
    {
        return trees_.empty() ? 0 : trees_.front().numBits();
    }

    /** Per-set tree accessor (test aid). */
    const PlruTree &tree(uint64_t set) const { return trees_[set]; }

  private:
    std::vector<PlruTree> trees_;
};

} // namespace gippr

#endif // GIPPR_CORE_PLRU_HH_
