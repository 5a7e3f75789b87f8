/**
 * @file
 * Re-Reference Interval Prediction policies (Jaleel et al., ISCA 2010).
 *
 * Each line carries an M-bit re-reference prediction value (RRPV);
 * larger means "predicted re-referenced further in the future".  The
 * victim is any line with the maximum RRPV (2^M - 1); if none exists,
 * all RRPVs in the set are incremented until one appears.  Hits set
 * the line's RRPV to 0 (hit-priority promotion).
 *
 *  - SRRIP inserts with RRPV = max-1 ("long re-reference").
 *  - BRRIP inserts with RRPV = max, and with low probability max-1.
 *  - DRRIP set-duels SRRIP against BRRIP, which is the paper's main
 *    storage/performance comparison point (2 bits per block).
 */

#ifndef GIPPR_POLICIES_RRIP_HH_
#define GIPPR_POLICIES_RRIP_HH_

#include <memory>
#include <optional>
#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "policies/set_dueling.hh"
#include "util/rng.hh"

namespace gippr
{

/** Shared RRIP machinery; insertion behaviour comes from the mode. */
class RripPolicy : public ReplacementPolicy
{
  public:
    enum class Mode { Static, Bimodal, Dynamic };

    /**
     * @param config       cache geometry
     * @param mode         SRRIP / BRRIP / DRRIP
     * @param rrpv_bits    RRPV width (paper comparisons use 2)
     * @param epsilon_inv  BRRIP inserts "long" once per this many fills
     * @param leaders      leader sets per policy (DRRIP only)
     * @param seed         RNG seed for the bimodal throttle
     */
    RripPolicy(const CacheConfig &config, Mode mode,
               unsigned rrpv_bits = 2, unsigned epsilon_inv = 32,
               unsigned leaders = 32, uint64_t seed = 1);

    unsigned victim(const AccessInfo &info) override;
    void onMiss(const AccessInfo &info) override;
    void onInsert(unsigned way, const AccessInfo &info) override;
    void onHit(unsigned way, const AccessInfo &info) override;
    void onInvalidate(uint64_t set, unsigned way) override;

    std::string name() const override;

    size_t
    stateBitsPerSet() const override
    {
        return static_cast<size_t>(ways_) * rrpvBits_;
    }

    size_t globalStateBits() const override;

    /** Current RRPV of (set, way) — test aid. */
    unsigned rrpv(uint64_t set, unsigned way) const;

    /** DRRIP's SRRIP-vs-BRRIP duel (one PSEL; idle for SRRIP/BRRIP). */
    const TournamentSelector &selector() const { return selector_; }

  protected:
    /** Insert using SRRIP's "long" prediction. */
    void insertStatic(uint64_t set, unsigned way);
    /** Insert using BRRIP's mostly-"distant" prediction. */
    void insertBimodal(uint64_t set, unsigned way);

  private:
    uint8_t &rrpvRef(uint64_t set, unsigned way);

    unsigned ways_;
    Mode mode_;
    unsigned rrpvBits_;
    unsigned rrpvMax_;
    unsigned epsilonInv_;
    std::vector<uint8_t> rrpv_;
    /** DRRIP's leader sets (Dynamic mode only). */
    std::optional<LeaderSets> leaders_;
    TournamentSelector selector_;
    Rng rng_;
};

/** Convenience aliases matching the paper's terminology. */
std::unique_ptr<RripPolicy> makeSrrip(const CacheConfig &config,
                                      unsigned rrpv_bits = 2);
std::unique_ptr<RripPolicy> makeBrrip(const CacheConfig &config,
                                      unsigned rrpv_bits = 2,
                                      uint64_t seed = 1);
std::unique_ptr<RripPolicy> makeDrrip(const CacheConfig &config,
                                      unsigned rrpv_bits = 2,
                                      unsigned leaders = 32,
                                      uint64_t seed = 1);

} // namespace gippr

#endif // GIPPR_POLICIES_RRIP_HH_
