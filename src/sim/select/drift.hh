/**
 * @file
 * Phase-drift detection for the policy selector.
 *
 * Two independent change-point triggers, both over per-epoch summary
 * state (never per-access branching on the hot path):
 *
 *  - Miss-rate change-point: an EWMA mean/variance of a per-epoch
 *    demand miss rate fed by the caller (the selector feeds the
 *    aggregate leader-set SHADOW rate, which fixed-policy shadows
 *    keep independent of the bandit's own arm switches); an epoch
 *    deviating by more than kZThreshold = 4 EWMA standard deviations
 *    AND an absolute kMinDelta = 0.04 floor signals a shift.  The
 *    floor keeps near-deterministic streams (variance ~ 0) from
 *    firing on harmless jitter.
 *  - Working-set change-point: a 16-kbit one-epoch Bloom signature of
 *    the demand blocks touched; the Jaccard overlap of consecutive
 *    epochs is tracked by EWMA, and an epoch whose overlap falls
 *    kOverlapDrop = 0.35 below that running mean signals that the stream
 *    moved to new addresses even if the miss rate did not move (a
 *    region shift under identical access statistics).  Comparing
 *    against the stream's OWN running overlap — not an absolute
 *    floor — keeps zero-reuse scans (whose overlap is always ~0)
 *    from firing every epoch.
 *
 * Both EWMAs weigh the newest epoch by kAlpha = 0.2.  Both triggers
 * arm only after kWarmEpochs = 4 epochs and re-arm after every
 * detection, so one phase shift fires once.  The five are constants
 * in drift.cc.  All state lives in fixed arrays; observeBlock() and
 * epochBoundary() are allocation-free and deterministic.
 */

#ifndef GIPPR_SIM_SELECT_DRIFT_HH_
#define GIPPR_SIM_SELECT_DRIFT_HH_

#include <cstdint>

#include "util/hot.hh"

namespace gippr::select
{

/** Windowed miss-rate + working-set change-point detector. */
class DriftDetector
{
  public:
    /** Fold one demand-accessed block into the epoch signature. */
    GIPPR_HOT void observeBlock(uint64_t block)
    {
        // SplitMix64 finalizer: cheap, well-mixed bit spread.
        uint64_t h = block + 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        h ^= h >> 31;
        sig_[cur_][(h >> 6) & (kWords - 1)] |= uint64_t{1} << (h & 63);
    }

    /**
     * Close the epoch that just ran at @p demand_miss_rate: test both
     * triggers, roll the EWMAs and signatures, and return whether a
     * phase shift was detected (the caller resets the bandit).
     */
    GIPPR_HOT bool epochBoundary(double demand_miss_rate);

  private:
    static constexpr uint64_t kWords = 256; // 16 kbit per signature
    /** Signature population below which overlap is meaningless. */
    static constexpr uint64_t kMinBits = 64;

    uint64_t sig_[2][kWords] = {};
    unsigned cur_ = 0;
    bool havePrev_ = false;
    bool haveOverlap_ = false;
    double rateMean_ = 0.0;
    double rateVar_ = 0.0;
    double overlapMean_ = 0.0;
    unsigned epochsSinceArm_ = 0;
};

} // namespace gippr::select

#endif // GIPPR_SIM_SELECT_DRIFT_HH_
