/**
 * @file
 * Set-dueling implementation.
 */

#include "policies/set_dueling.hh"

#include "util/bitops.hh"
#include "util/check.hh"
#include "util/log.hh"

namespace gippr
{

LeaderSets::LeaderSets(uint64_t sets, unsigned policies,
                       unsigned leaders_per_policy)
    : sets_(sets), policies_(policies),
      leadersPerPolicy_(leaders_per_policy)
{
    GIPPR_CHECK(policies_ >= 1);
    if (leadersPerPolicy_ == 0)
        fatal("set dueling requires at least one leader per policy");
    if (sets_ % leadersPerPolicy_ != 0)
        fatal("leader count must divide the number of sets");
    const uint64_t constituency = sets_ / leadersPerPolicy_;
    if (constituency < policies_)
        fatal("too many dueling policies for this leader configuration");

    owner_.assign(sets_, kFollower);
    for (unsigned c = 0; c < leadersPerPolicy_; ++c) {
        for (unsigned p = 0; p < policies_; ++p) {
            uint64_t offset = (5ULL * c + p) % constituency;
            owner_[c * constituency + offset] = static_cast<int8_t>(p);
        }
    }
}

int
LeaderSets::owner(uint64_t set) const
{
    GIPPR_CHECK(set < sets_);
    return owner_[set];
}

std::vector<int8_t>
LeaderSets::domainOwners(unsigned domains) const
{
    std::vector<int8_t> owners(domains * sets_);
    for (unsigned d = 0; d < domains; ++d)
        for (uint64_t s = 0; s < sets_; ++s)
            owners[d * sets_ + s] =
                owner_[(s + d * kLeaderSetRotate) % sets_];
    return owners;
}

unsigned
clampLeaders(uint64_t sets, unsigned policies, unsigned requested)
{
    GIPPR_CHECK(policies >= 1);
    // Leave at least three quarters of the cache as followers so the
    // duel's winner actually governs most sets even on tiny test
    // geometries.
    uint64_t cap = sets / (4 * static_cast<uint64_t>(policies));
    if (cap < 1)
        cap = 1;
    uint64_t want = requested < cap ? requested : cap;
    if (want < 1)
        want = 1;
    // Round down to a power of two so the count divides the
    // (power-of-two) set count.
    uint64_t l = 1;
    while (l * 2 <= want)
        l *= 2;
    return static_cast<unsigned>(l);
}

TournamentSelector::TournamentSelector(unsigned policies,
                                       unsigned counter_bits)
    : policies_(policies), counterBits_(counter_bits)
{
    if (policies_ < 2 || !isPow2(policies_))
        fatal("tournament selector needs a power-of-two policy count");
    unsigned levels = floorLog2(policies_);
    levels_.reserve(levels);
    for (unsigned l = 0; l < levels; ++l) {
        levels_.emplace_back(policies_ >> (l + 1),
                             DuelCounter(counterBits_));
    }
}

void
TournamentSelector::recordMiss(unsigned p)
{
    GIPPR_CHECK(p < policies_);
    for (unsigned l = 0; l < levels_.size(); ++l) {
        DuelCounter &ctr = levels_[l][p >> (l + 1)];
        if (((p >> l) & 1) == 0)
            ctr.missA();
        else
            ctr.missB();
    }
}

unsigned
TournamentSelector::winner() const
{
    unsigned idx = 0;
    for (size_t l = levels_.size(); l-- > 0;) {
        unsigned side = levels_[l][idx].preferB() ? 1 : 0;
        idx = idx * 2 + side;
    }
    return idx;
}

std::vector<uint64_t>
TournamentSelector::counterValues() const
{
    std::vector<uint64_t> out;
    out.reserve(policies_ - 1);
    for (const auto &level : levels_)
        for (const DuelCounter &ctr : level)
            out.push_back(ctr.raw());
    return out;
}

std::size_t
TournamentSelector::stateBits() const
{
    return static_cast<size_t>(policies_ - 1) * counterBits_;
}

} // namespace gippr
