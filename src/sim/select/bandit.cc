/**
 * @file
 * Bandit selector implementation.
 */

#include "sim/select/bandit.hh"

#include <cmath>

#include "util/check.hh"

namespace gippr::select
{

namespace
{

/** Per-epoch discount of bandit state (dUCB and epsilon-greedy). */
constexpr double kGamma = 0.8;
/** Exploration width of the dUCB confidence bonus. */
constexpr double kUcbC = 0.05;
/** Exploration probability (epsilon-greedy). */
constexpr double kEpsilon = 0.05;
/** A challenger must beat the incumbent's score by this much. */
constexpr double kSwitchMargin = 0.005;

} // namespace

BanditSelector::BanditSelector(const SelectConfig &cfg, unsigned arms)
    : kind_(cfg.kind), arms_(arms), sum_(arms, 0.0), weight_(arms, 0.0),
      rng_(cfg.seed)
{
    GIPPR_CHECK(arms_ >= 1);
}

void
BanditSelector::recordEpochRewards(const double *rewards,
                                   const uint8_t *sampled)
{
    totalWeight_ *= kGamma;
    for (unsigned a = 0; a < arms_; ++a) {
        sum_[a] *= kGamma;
        weight_[a] *= kGamma;
        if (sampled[a] != 0) {
            sum_[a] += rewards[a];
            weight_[a] += 1.0;
            totalWeight_ += 1.0;
        }
    }
}

double
BanditSelector::scoreOf(unsigned arm) const
{
    if (weight_[arm] <= 0.0) {
        // Never-sampled arm: optimistic score forces one look.
        return 2.0;
    }
    const double mean = sum_[arm] / weight_[arm];
    if (kind_ == BanditKind::EpsilonGreedy)
        return mean;
    const double t = totalWeight_ > 1.0 ? totalWeight_ : 1.0 + 1e-9;
    return mean + kUcbC * std::sqrt(std::log(t) / weight_[arm]);
}

unsigned
BanditSelector::chooseArm(unsigned incumbent)
{
    GIPPR_DCHECK(incumbent < arms_);
    if (arms_ == 1)
        return 0;
    if (kind_ == BanditKind::EpsilonGreedy &&
        rng_.nextDouble() < kEpsilon) {
        return static_cast<unsigned>(rng_.nextBounded(arms_));
    }
    unsigned best = 0;
    double best_score = scoreOf(0);
    for (unsigned a = 1; a < arms_; ++a) {
        const double s = scoreOf(a);
        // Strict > keeps ties on the lowest arm index.
        if (s > best_score) {
            best = a;
            best_score = s;
        }
    }
    if (best != incumbent &&
        best_score < scoreOf(incumbent) + kSwitchMargin)
        return incumbent;
    return best;
}

void
BanditSelector::resetEvidence()
{
    for (unsigned a = 0; a < arms_; ++a) {
        sum_[a] = 0.0;
        weight_[a] = 0.0;
    }
    totalWeight_ = 0.0;
}

} // namespace gippr::select
