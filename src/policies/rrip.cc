/**
 * @file
 * RRIP implementation.
 */

#include "policies/rrip.hh"
#include "util/check.hh"

#include <memory>

namespace gippr
{

RripPolicy::RripPolicy(const CacheConfig &config, Mode mode,
                       unsigned rrpv_bits, unsigned epsilon_inv,
                       unsigned leaders, uint64_t seed)
    : ways_(config.assoc), mode_(mode), rrpvBits_(rrpv_bits),
      rrpvMax_((1U << rrpv_bits) - 1), epsilonInv_(epsilon_inv),
      rrpv_(config.sets() * config.assoc,
            static_cast<uint8_t>((1U << rrpv_bits) - 1)),
      selector_(2), rng_(seed)
{
    GIPPR_CHECK(rrpv_bits >= 1 && rrpv_bits <= 8);
    // Only DRRIP duels; SRRIP and BRRIP run on any set count.
    if (mode == Mode::Dynamic)
        leaders_.emplace(config.sets(), 2,
                         clampLeaders(config.sets(), 2, leaders));
}

uint8_t &
RripPolicy::rrpvRef(uint64_t set, unsigned way)
{
    return rrpv_[set * ways_ + way];
}

unsigned
RripPolicy::rrpv(uint64_t set, unsigned way) const
{
    return rrpv_[set * ways_ + way];
}

unsigned
RripPolicy::victim(const AccessInfo &info)
{
    // Find the leftmost line predicted "distant"; age the whole set
    // until one exists.
    for (;;) {
        for (unsigned w = 0; w < ways_; ++w) {
            if (rrpvRef(info.set, w) == rrpvMax_)
                return w;
        }
        for (unsigned w = 0; w < ways_; ++w)
            ++rrpvRef(info.set, w);
    }
}

void
RripPolicy::onMiss(const AccessInfo &info)
{
    if (mode_ != Mode::Dynamic || info.type == AccessType::Writeback)
        return;
    int owner = leaders_->owner(info.set);
    if (owner != LeaderSets::kFollower)
        selector_.recordMiss(static_cast<unsigned>(owner));
}

void
RripPolicy::insertStatic(uint64_t set, unsigned way)
{
    rrpvRef(set, way) = static_cast<uint8_t>(rrpvMax_ - 1);
}

void
RripPolicy::insertBimodal(uint64_t set, unsigned way)
{
    const bool long_insert = rng_.nextBounded(epsilonInv_) == 0;
    rrpvRef(set, way) =
        static_cast<uint8_t>(long_insert ? rrpvMax_ - 1 : rrpvMax_);
}

void
RripPolicy::onInsert(unsigned way, const AccessInfo &info)
{
    switch (mode_) {
      case Mode::Static:
        insertStatic(info.set, way);
        return;
      case Mode::Bimodal:
        insertBimodal(info.set, way);
        return;
      case Mode::Dynamic:
        break;
    }
    // DRRIP: leaders use their own member, followers the winner.
    int owner = leaders_->owner(info.set);
    unsigned policy = owner != LeaderSets::kFollower
                          ? static_cast<unsigned>(owner)
                          : selector_.winner();
    if (policy == 0)
        insertStatic(info.set, way);
    else
        insertBimodal(info.set, way);
}

void
RripPolicy::onHit(unsigned way, const AccessInfo &info)
{
    if (info.type == AccessType::Writeback)
        return;
    rrpvRef(info.set, way) = 0;
}

void
RripPolicy::onInvalidate(uint64_t set, unsigned way)
{
    rrpvRef(set, way) = static_cast<uint8_t>(rrpvMax_);
}

std::string
RripPolicy::name() const
{
    switch (mode_) {
      case Mode::Static:
        return "SRRIP";
      case Mode::Bimodal:
        return "BRRIP";
      case Mode::Dynamic:
        return "DRRIP";
    }
    return "RRIP";
}

size_t
RripPolicy::globalStateBits() const
{
    return mode_ == Mode::Dynamic ? selector_.stateBits() : 0;
}

std::unique_ptr<RripPolicy>
makeSrrip(const CacheConfig &config, unsigned rrpv_bits)
{
    return std::make_unique<RripPolicy>(config, RripPolicy::Mode::Static,
                                        rrpv_bits);
}

std::unique_ptr<RripPolicy>
makeBrrip(const CacheConfig &config, unsigned rrpv_bits, uint64_t seed)
{
    return std::make_unique<RripPolicy>(config, RripPolicy::Mode::Bimodal,
                                        rrpv_bits, 32, 32, seed);
}

std::unique_ptr<RripPolicy>
makeDrrip(const CacheConfig &config, unsigned rrpv_bits, unsigned leaders,
          uint64_t seed)
{
    return std::make_unique<RripPolicy>(config, RripPolicy::Mode::Dynamic,
                                        rrpv_bits, 32, leaders, seed);
}

} // namespace gippr
