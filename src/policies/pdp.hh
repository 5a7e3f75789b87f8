/**
 * @file
 * Protecting Distance based Policy (Duong et al., MICRO 2012).
 *
 * PDP protects each line from eviction for a number of set accesses
 * (the protecting distance, dp).  A sampler measures the reuse-distance
 * distribution online; each epoch a solver picks the dp that maximizes
 * the expected hit rate per unit of cache occupancy:
 *
 *     E(dp) = sum_{i<=dp} N_i
 *             -----------------------------------------
 *             sum_{i<=dp} i*N_i  +  dp * (N_t - sum_{i<=dp} N_i)
 *
 * Lines carry a small saturating "remaining protection" counter that
 * is decremented on a per-set cadence so a few bits can cover large
 * protecting distances, plus a reuse bit.  Victims are unprotected
 * lines; if every line is protected, the newest line that has not yet
 * proven itself by a re-reference is sacrificed, which approximates
 * bypass without violating inclusion (the non-bypass configuration,
 * the one the GIPPR paper compares against).  The paper charges PDP
 * 3-4 bits/line plus a specialized microcontroller; we account the
 * sampler and solver storage in globalStateBits().
 *
 * The set-independent half — sampler, histogram, solver and epoch
 * cadence — lives in PdpController, which PdpPolicy and the packed
 * replay model (sim/fastpath) both drive, so the two cannot drift.
 */

#ifndef GIPPR_POLICIES_PDP_HH_
#define GIPPR_POLICIES_PDP_HH_

#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "util/block_map.hh"
#include "util/histogram.hh"

namespace gippr
{

/** Tuning knobs for PDP. */
struct PdpParams
{
    /** Per-line protection counter width (paper: 3 or 4). */
    unsigned counterBits = 4;
    /** Maximum protecting distance considered by the solver. */
    unsigned maxDistance = 256;
    /**
     * LLC accesses between dp recomputations.  The PDP paper uses
     * 512K over billion-access runs; scaled down here so the solver
     * fires several times within this repo's shorter traces.
     */
    uint64_t epochAccesses = 128 * 1024;
    /** Sample one of every 2^sampleShift sets for RD measurement. */
    unsigned sampleShift = 4;
    /** dp used before the first epoch completes. */
    unsigned initialDp = 64;

    bool operator==(const PdpParams &o) const = default;
};

/**
 * PDP's cache-wide state: the reuse-distance sampler, its histogram,
 * the dp solver and the epoch cadence, plus the two values every
 * per-set transition reads (the counter decrement period and the
 * quantized protection a touched line receives), recomputed once per
 * epoch.  The per-line and per-set state stays with the caller.
 */
class PdpController
{
  public:
    explicit PdpController(PdpParams params = {});

    /** True when @p set feeds the reuse-distance sampler. */
    bool
    sampled(uint64_t set) const
    {
        return (set & sampleMask_) == 0;
    }

    /** Sampler capacity: a hardware structure, so bounded. */
    static constexpr size_t kSamplerEntries = 65536;

    /**
     * Sampler step for a counted access to @p block in a sampled set
     * whose access count, before this access, is @p set_count.
     */
    void sample(uint64_t block, uint32_t set_count);

    /** Count one access toward the epoch; solve dp at its end. */
    void
    endAccess()
    {
        if (++accessesThisEpoch_ >= params_.epochAccesses) {
            accessesThisEpoch_ = 0;
            endEpoch();
        }
    }

    /** Set accesses represented by one counter decrement. */
    unsigned decrementPeriod() const { return decrementPeriod_; }

    /** Quantized protection of a freshly touched line. */
    uint8_t protectedValue() const { return protectedValue_; }

    /** Current protecting distance. */
    unsigned dp() const { return dp_; }

    const PdpParams &params() const { return params_; }

    /** The dp maximizing E(dp) over @p rd (see the file comment). */
    static unsigned solveDp(const Histogram &rd, unsigned max_distance);

  private:
    void endEpoch();
    /** Refresh decrementPeriod_ and protectedValue_ from dp_. */
    void derive();

    PdpParams params_;
    uint64_t sampleMask_;
    unsigned dp_;
    unsigned decrementPeriod_ = 1;
    uint8_t protectedValue_ = 0;
    Histogram rdHist_;
    uint64_t accessesThisEpoch_ = 0;
    /** Sampler: per sampled set, block -> set access count at last
     *  use.  Cleared once it passes kSamplerEntries, so it never
     *  passes half load. */
    BlockMap lastUse_;
};

/** PDP replacement (non-bypass configuration). */
class PdpPolicy : public ReplacementPolicy
{
  public:
    explicit PdpPolicy(const CacheConfig &config, PdpParams params = {});

    unsigned victim(const AccessInfo &info) override;
    void onInsert(unsigned way, const AccessInfo &info) override;
    void onHit(unsigned way, const AccessInfo &info) override;
    void onInvalidate(uint64_t set, unsigned way) override;

    std::string name() const override { return "PDP"; }

    size_t
    stateBitsPerSet() const override
    {
        // Per-line protection counters and reuse bit, plus the
        // per-set decrement tick.
        return static_cast<size_t>(ways_) *
                   (control_.params().counterBits + 1) +
               8;
    }

    size_t globalStateBits() const override;

    /** Current protecting distance (test / diagnostic aid). */
    unsigned protectingDistance() const { return control_.dp(); }

    /** Remaining protection of (set, way) — equivalence probe. */
    unsigned
    protection(uint64_t set, unsigned way) const
    {
        return prot_[set * ways_ + way];
    }

    /** Reuse bit of (set, way) — equivalence probe. */
    bool
    reusedAt(uint64_t set, unsigned way) const
    {
        return reused_[set * ways_ + way] != 0;
    }

  private:
    /** Per-set bookkeeping shared by all lines in the set. */
    struct SetState
    {
        /** Accesses to this set since the last counter decrement. */
        uint16_t tick = 0;
        /** Total accesses to this set (sampler distance base). */
        uint32_t accessCount = 0;
    };

    uint8_t &prot(uint64_t set, unsigned way);

    /** One counted access to @p way: sample, tick, protect. */
    void touch(unsigned way, const AccessInfo &info, bool reused);

    unsigned ways_;
    PdpController control_;
    std::vector<uint8_t> prot_;
    /** Per line: re-referenced since insertion (0/1). */
    std::vector<uint8_t> reused_;
    std::vector<SetState> setState_;
};

} // namespace gippr

#endif // GIPPR_POLICIES_PDP_HH_
