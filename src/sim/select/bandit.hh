/**
 * @file
 * Bandit arm selection over shadow rewards.
 *
 * Rewards are per-epoch leader-set demand hit rates in [0, 1] — the
 * shadow sampling makes this a full-information setting (every arm is
 * scored every epoch), so the bandit machinery earns its keep on
 * non-stationarity, not on exploration: the discount kGamma = 0.8 ages
 * out stale evidence, the dUCB confidence bonus (width kUcbC = 0.05)
 * covers arms whose leader sets saw little traffic, and the switch
 * margin kSwitchMargin = 0.005 keeps measurement noise from thrashing
 * the chosen arm; epsilon-greedy explores with probability kEpsilon =
 * 0.05.  The four are constants in bandit.cc.  Garivier & Moulines'
 * discounted UCB is the template for the dUCB variant.
 *
 * Everything here is deterministic given the construction arguments
 * and the call sequence: epsilon-greedy draws from its own seeded Rng
 * and ties break toward the lowest arm index, so scalar and fastpath
 * selector runs make identical decisions.
 */

#ifndef GIPPR_SIM_SELECT_BANDIT_HH_
#define GIPPR_SIM_SELECT_BANDIT_HH_

#include <cstdint>
#include <vector>

#include "sim/select/select.hh"
#include "util/hot.hh"
#include "util/rng.hh"

namespace gippr::select
{

/** Discounted bandit state over a fixed arm count. */
class BanditSelector
{
  public:
    BanditSelector(const SelectConfig &cfg, unsigned arms);

    /**
     * Fold one epoch of rewards in: discount all state by kGamma, then
     * credit each arm with @p sampled[i] != 0 its reward.  Arms whose
     * leader sets saw no demand traffic this epoch are left unsampled
     * and keep (discounted) prior evidence.
     */
    GIPPR_HOT void recordEpochRewards(const double *rewards,
                                      const uint8_t *sampled);

    /**
     * Arm for the next epoch.  The incumbent is kept unless a
     * challenger's score clears it by the switch margin (or an
     * epsilon exploration fires).
     */
    GIPPR_HOT unsigned chooseArm(unsigned incumbent);

    /** Drift response: forget all reward evidence (the exploration
     *  Rng stream is NOT rewound — determinism is call-sequence
     *  determinism, not state rollback). */
    GIPPR_HOT void resetEvidence();

    unsigned arms() const { return arms_; }

  private:
    GIPPR_HOT double scoreOf(unsigned arm) const;

    BanditKind kind_;
    unsigned arms_;
    std::vector<double> sum_;    ///< discounted reward sums
    std::vector<double> weight_; ///< discounted sample weights
    double totalWeight_ = 0.0;
    Rng rng_;
};

} // namespace gippr::select

#endif // GIPPR_SIM_SELECT_BANDIT_HH_
