/**
 * @file
 * Drift detector implementation.
 */

#include "sim/select/drift.hh"

#include <bit>
#include <cmath>

namespace gippr::select
{

namespace
{

/** EWMA weight of the newest epoch (mean and variance). */
constexpr double kAlpha = 0.2;
/** Miss-rate deviation trigger, in EWMA standard deviations. */
constexpr double kZThreshold = 4.0;
/** Absolute miss-rate deviation floor (units of miss rate). */
constexpr double kMinDelta = 0.04;
/** Working-set signature overlap drop that signals a shift. */
constexpr double kOverlapDrop = 0.35;
/** Epochs observed before either trigger arms (also after a reset,
 *  so one shift fires once, not every epoch). */
constexpr unsigned kWarmEpochs = 4;

} // namespace

bool
DriftDetector::epochBoundary(double demand_miss_rate)
{
    const bool armed = epochsSinceArm_ >= kWarmEpochs;
    bool drift = false;

    // Working-set signature overlap against the previous epoch.
    const uint64_t *cur = sig_[cur_];
    const uint64_t *prev = sig_[cur_ ^ 1];
    bool have_jaccard = false;
    double jaccard = 0.0;
    if (havePrev_) {
        uint64_t inter = 0;
        uint64_t uni = 0;
        uint64_t cur_pop = 0;
        uint64_t prev_pop = 0;
        for (uint64_t w = 0; w < kWords; ++w) {
            inter += std::popcount(cur[w] & prev[w]);
            uni += std::popcount(cur[w] | prev[w]);
            cur_pop += std::popcount(cur[w]);
            prev_pop += std::popcount(prev[w]);
        }
        if (cur_pop >= kMinBits && prev_pop >= kMinBits && uni > 0) {
            jaccard = static_cast<double>(inter) /
                      static_cast<double>(uni);
            have_jaccard = true;
            if (armed && haveOverlap_ &&
                jaccard < overlapMean_ - kOverlapDrop) {
                drift = true;
            }
        }
    }

    // Miss-rate change-point against the EWMA of past epochs.
    if (armed) {
        const double dev = std::fabs(demand_miss_rate - rateMean_);
        const double sd = std::sqrt(rateVar_ > 0.0 ? rateVar_ : 0.0);
        if (dev > kMinDelta && dev > kZThreshold * sd)
            drift = true;
    }

    // Roll the EWMAs (after testing, so an epoch never explains
    // itself away).  A detection re-seeds them on the new phase.
    if (drift) {
        rateMean_ = demand_miss_rate;
        rateVar_ = 0.0;
        haveOverlap_ = false;
        epochsSinceArm_ = 0;
    } else if (epochsSinceArm_ == 0 && !havePrev_) {
        rateMean_ = demand_miss_rate;
        rateVar_ = 0.0;
    } else {
        const double d = demand_miss_rate - rateMean_;
        rateMean_ += kAlpha * d;
        rateVar_ = (1.0 - kAlpha) * (rateVar_ + kAlpha * d * d);
    }
    if (have_jaccard && !drift) {
        if (!haveOverlap_) {
            overlapMean_ = jaccard;
            haveOverlap_ = true;
        } else {
            overlapMean_ += kAlpha * (jaccard - overlapMean_);
        }
    }
    ++epochsSinceArm_;

    // Roll the signatures: current becomes previous, clear the slot.
    cur_ ^= 1;
    uint64_t *next = sig_[cur_];
    for (uint64_t w = 0; w < kWords; ++w)
        next[w] = 0;
    havePrev_ = true;
    return drift;
}

} // namespace gippr::select
