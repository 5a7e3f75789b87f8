/**
 * @file
 * Scalar shared-LLC reference implementation.
 */

#include "sim/multicore/reference_model.hh"

#include "util/check.hh"

namespace gippr::multicore
{

ScalarSharedLlc::ScalarSharedLlc(const fastpath::ReplaySpec &spec,
                                 const CacheConfig &config,
                                 unsigned domains)
    : decode_(config), sets_(config.sets()), assoc_(config.assoc),
      fullMask_(config.assoc == 64 ? ~uint64_t{0}
                                   : (uint64_t{1} << config.assoc) - 1)
{
    GIPPR_CHECK(domains >= 1);

    switch (spec.kind) {
      case fastpath::FastPolicyKind::Lru:
      case fastpath::FastPolicyKind::Lip:
      case fastpath::FastPolicyKind::Giplr:
        family_ = Family::Recency;
        break;
      case fastpath::FastPolicyKind::Plru:
        family_ = Family::Plru;
        break;
      case fastpath::FastPolicyKind::Gippr:
        family_ = Family::TreeIpv;
        break;
      case fastpath::FastPolicyKind::Dgippr:
        family_ = Family::TreeIpv;
        duel_ = true;
        break;
    }
    ipvs_ = fastpath::effectiveIpvs(spec, assoc_);

    lines_.assign(sets_ * assoc_, {});
    if (family_ == Family::Recency) {
        stacks_.assign(sets_, RecencyStack(assoc_));
    } else {
        trees_.assign(sets_, PlruTree(assoc_));
    }

    if (duel_) {
        const auto nvec = static_cast<unsigned>(spec.ipvs.size());
        const unsigned leaders =
            clampLeaders(sets_, nvec, spec.leaders);
        LeaderSets base(sets_, nvec, leaders);
        owners_.resize(domains);
        winner_.resize(domains);
        leaderMisses_.assign(domains,
                             std::vector<uint64_t>(nvec, 0));
        selectors_.reserve(domains);
        for (unsigned d = 0; d < domains; ++d) {
            owners_[d].resize(sets_);
            for (uint64_t s = 0; s < sets_; ++s)
                owners_[d][s] =
                    base.owner((s + d * fastpath::kLeaderSetRotate) %
                               sets_);
            selectors_.emplace_back(nvec, spec.counterBits);
            winner_[d] = selectors_[d].winner();
        }
    }
}

uint64_t
ScalarSharedLlc::setIndex(uint64_t byte_addr) const
{
    return decode_.setIndex(byte_addr);
}

uint64_t
ScalarSharedLlc::tagOf(uint64_t byte_addr) const
{
    return decode_.tag(byte_addr);
}

unsigned
ScalarSharedLlc::ipvIndexFor(unsigned domain, uint64_t set) const
{
    if (!duel_)
        return 0;
    const int owner = owners_[domain][set];
    return owner != LeaderSets::kFollower ? static_cast<unsigned>(owner)
                                          : winner_[domain];
}

int
ScalarSharedLlc::findWay(uint64_t set, uint64_t tag) const
{
    const uint64_t base = set * assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        const Line &l = lines_[base + w];
        if (l.valid && l.tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

unsigned
ScalarSharedLlc::victimWay(uint64_t set, uint64_t mask) const
{
    if (mask == fullMask_) {
        return family_ == Family::Recency ? stacks_[set].lruWay()
                                          : trees_[set].findPlru();
    }
    // Highest recency position within the mask: the way-partitioning
    // victim rule, which a full mask reduces to the policy victim.
    unsigned best = 0;
    unsigned best_pos = 0;
    bool found = false;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (((mask >> w) & 1) == 0)
            continue;
        const unsigned p = family_ == Family::Recency
                               ? stacks_[set].position(w)
                               : trees_[set].position(w);
        if (!found || p > best_pos) {
            best = w;
            best_pos = p;
            found = true;
        }
    }
    GIPPR_DCHECK(found);
    return best;
}

ScalarSharedLlc::Step
ScalarSharedLlc::access(uint64_t set, uint64_t tag, AccessType type,
                        unsigned domain, uint64_t mask)
{
    GIPPR_DCHECK(!duel_ || domain < owners_.size());
    GIPPR_DCHECK(mask != 0 && (mask & ~fullMask_) == 0);
    const bool demand = type != AccessType::Writeback;
    const uint64_t base = set * assoc_;

    Step step;
    const int hit_way = findWay(set, tag);
    if (hit_way >= 0) {
        const unsigned way = static_cast<unsigned>(hit_way);
        step.hit = true;
        step.way = way;
        if (type != AccessType::Load)
            lines_[base + way].dirty = true;
        if (demand) {
            switch (family_) {
              case Family::Recency: {
                RecencyStack &st = stacks_[set];
                st.moveTo(way,
                          ipvs_[0].promotion(st.position(way)));
                break;
              }
              case Family::Plru:
                trees_[set].promoteMru(way);
                break;
              case Family::TreeIpv: {
                const unsigned v = ipvIndexFor(domain, set);
                PlruTree &tr = trees_[set];
                tr.setPosition(
                    way, ipvs_[v].promotion(tr.position(way)));
                break;
              }
            }
        }
        return step;
    }

    // Miss: duel update before victim selection.
    if (duel_ && demand) {
        const int owner = owners_[domain][set];
        if (owner != LeaderSets::kFollower) {
            ++leaderMisses_[domain][static_cast<unsigned>(owner)];
            selectors_[domain].recordMiss(static_cast<unsigned>(owner));
            winner_[domain] = selectors_[domain].winner();
        }
    }

    // Fill: first invalid way within the mask, else victim.
    int fill = -1;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (((mask >> w) & 1) != 0 && !lines_[base + w].valid) {
            fill = static_cast<int>(w);
            break;
        }
    }
    unsigned way;
    if (fill >= 0) {
        way = static_cast<unsigned>(fill);
    } else {
        way = victimWay(set, mask);
        step.evicted = true;
        step.evictedTag = lines_[base + way].tag;
        step.evictedDirty = lines_[base + way].dirty;
    }
    step.way = way;

    Line &l = lines_[base + way];
    l.tag = tag;
    l.valid = true;
    l.dirty = type != AccessType::Load;

    switch (family_) {
      case Family::Recency: {
        RecencyStack &st = stacks_[set];
        st.moveTo(way, assoc_ - 1);
        st.moveTo(way, ipvs_[0].insertion());
        break;
      }
      case Family::Plru:
        trees_[set].promoteMru(way);
        break;
      case Family::TreeIpv: {
        const unsigned v = ipvIndexFor(domain, set);
        trees_[set].setPosition(way, ipvs_[v].insertion());
        break;
      }
    }
    return step;
}

void
ScalarSharedLlc::duelStats(unsigned domain,
                           fastpath::ReplayStats &out) const
{
    if (!duel_)
        return;
    GIPPR_CHECK(domain < selectors_.size());
    out.finalWinner = selectors_[domain].winner();
    out.duelCounters = selectors_[domain].counterValues();
    out.leaderMisses = leaderMisses_[domain];
}

} // namespace gippr::multicore
