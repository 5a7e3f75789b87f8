/**
 * @file
 * PDP implementation.
 */

#include "policies/pdp.hh"

#include <algorithm>

#include "util/check.hh"

namespace gippr
{

PdpController::PdpController(PdpParams params)
    : params_(params),
      sampleMask_((uint64_t{1} << params.sampleShift) - 1),
      dp_(params.initialDp), rdHist_(params.maxDistance),
      // 2^17 slots: the kSamplerEntries + 1 entries the sampler can
      // hold before it clears fill them to half load.
      lastUse_(17)
{
    GIPPR_CHECK(params_.counterBits >= 2 && params_.counterBits <= 8);
    GIPPR_CHECK(params_.initialDp >= 1);
    derive();
}

void
PdpController::derive()
{
    const unsigned max_val = (1U << params_.counterBits) - 1;
    decrementPeriod_ = std::max(1U, dp_ / max_val);
    const unsigned v = (dp_ + decrementPeriod_ - 1) / decrementPeriod_;
    protectedValue_ = static_cast<uint8_t>(std::min(v, max_val));
}

void
PdpController::sample(uint64_t block, uint32_t set_count)
{
    if (uint32_t *last = lastUse_.find(block)) {
        const uint32_t dist = set_count - *last;
        rdHist_.add(dist);
        *last = set_count;
    } else {
        if (lastUse_.size() > kSamplerEntries)
            lastUse_.clear();
        lastUse_.put(block, set_count);
    }
}

unsigned
PdpController::solveDp(const Histogram &rd, unsigned max_distance)
{
    const uint64_t total = rd.total();
    if (total == 0)
        return std::max(1U, max_distance / 4);
    unsigned best_dp = 1;
    double best_e = -1.0;
    for (unsigned dp = 1; dp <= max_distance; ++dp) {
        const uint64_t hits = rd.cumulative(dp);
        const uint64_t hit_time = rd.weightedCumulative(dp);
        const uint64_t miss_time =
            static_cast<uint64_t>(dp) * (total - hits);
        const uint64_t denom = hit_time + miss_time;
        if (denom == 0)
            continue;
        const double e = static_cast<double>(hits) /
                         static_cast<double>(denom);
        if (e > best_e) {
            best_e = e;
            best_dp = dp;
        }
    }
    return best_dp;
}

void
PdpController::endEpoch()
{
    dp_ = solveDp(rdHist_, params_.maxDistance);
    derive();
    rdHist_.decay();
}

PdpPolicy::PdpPolicy(const CacheConfig &config, PdpParams params)
    : ways_(config.assoc), control_(params),
      prot_(config.sets() * config.assoc, 0),
      reused_(config.sets() * config.assoc, 0),
      setState_(config.sets())
{
}

uint8_t &
PdpPolicy::prot(uint64_t set, unsigned way)
{
    return prot_[set * ways_ + way];
}

void
PdpPolicy::touch(unsigned way, const AccessInfo &info, bool reused)
{
    SetState &st = setState_[info.set];
    if (control_.sampled(info.set))
        control_.sample(info.blockAddr, st.accessCount);
    // Advance the per-set decrement cadence.
    ++st.accessCount;
    if (++st.tick >= control_.decrementPeriod()) {
        st.tick = 0;
        for (unsigned w = 0; w < ways_; ++w) {
            uint8_t &p = prot(info.set, w);
            if (p > 0)
                --p;
        }
    }
    prot(info.set, way) = control_.protectedValue();
    reused_[info.set * ways_ + way] = reused ? 1 : 0;
    control_.endAccess();
}

unsigned
PdpPolicy::victim(const AccessInfo &info)
{
    // Prefer an unprotected line.  When every line is protected,
    // non-bypass PDP approximates bypass by sacrificing the newest
    // *unproven* line: among lines never re-referenced since
    // insertion, the one with the largest remaining distance (the
    // most recent insertion).  Proven (reused) lines are spared so a
    // hot working set survives pollution; if everything has reused,
    // fall back to the most recently protected line.  This keeps
    // PDP's thrash resistance without violating inclusion.
    unsigned best_way = ways_;
    uint8_t best_prot = 0;
    unsigned fallback_way = 0;
    uint8_t fallback_prot = prot(info.set, 0);
    for (unsigned w = 0; w < ways_; ++w) {
        uint8_t p = prot(info.set, w);
        if (p == 0)
            return w;
        if (!reusedAt(info.set, w) &&
            (best_way == ways_ || p > best_prot)) {
            best_prot = p;
            best_way = w;
        }
        if (p > fallback_prot) {
            fallback_prot = p;
            fallback_way = w;
        }
    }
    return best_way != ways_ ? best_way : fallback_way;
}

void
PdpPolicy::onInsert(unsigned way, const AccessInfo &info)
{
    touch(way, info, false);
}

void
PdpPolicy::onHit(unsigned way, const AccessInfo &info)
{
    if (info.type == AccessType::Writeback)
        return;
    touch(way, info, true);
}

void
PdpPolicy::onInvalidate(uint64_t set, unsigned way)
{
    prot(set, way) = 0;
    reused_[set * ways_ + way] = 0;
}

size_t
PdpPolicy::globalStateBits() const
{
    // Reuse-distance histogram registers plus the dp/period registers;
    // stands in for the paper's "specialized microcontroller" storage.
    return (control_.params().maxDistance + 1) * 16 + 2 * 16;
}

} // namespace gippr
