/**
 * @file
 * DGIPPR implementation.
 */

#include "core/dgippr.hh"

#include "util/check.hh"
#include "util/log.hh"

namespace gippr
{

DgipprPolicy::DgipprPolicy(const CacheConfig &config,
                           std::vector<Ipv> ipvs, unsigned leaders,
                           unsigned counter_bits, unsigned domains)
    : sets_(config.sets()), ipvs_(std::move(ipvs)),
      trees_(config.sets(), PlruTree(config.assoc))
{
    if (ipvs_.size() < 2)
        fatal("DGIPPR needs at least two IPVs to duel");
    for (const Ipv &v : ipvs_) {
        if (v.ways() != config.assoc)
            fatal("DGIPPR: IPV arity does not match associativity");
    }
    if (domains == 0)
        fatal("DGIPPR needs at least one duel domain");
    const auto nvec = static_cast<unsigned>(ipvs_.size());
    owners_ = LeaderSets(sets_, nvec, clampLeaders(sets_, nvec, leaders))
                  .domainOwners(domains);
    domains_.reserve(domains);
    for (unsigned d = 0; d < domains; ++d) {
        TournamentSelector selector(nvec, counter_bits);
        const unsigned winner = selector.winner();
        domains_.push_back({std::move(selector), winner,
                            std::vector<uint64_t>(nvec, 0)});
    }
}

int
DgipprPolicy::ownerOf(const AccessInfo &info) const
{
    GIPPR_CHECK(info.domain < domains_.size());
    return owners_[info.domain * sets_ + info.set];
}

const Ipv &
DgipprPolicy::ipvFor(const AccessInfo &info) const
{
    const int owner = ownerOf(info);
    return ipvs_[owner != LeaderSets::kFollower
                     ? static_cast<unsigned>(owner)
                     : domains_[info.domain].winner];
}

unsigned
DgipprPolicy::victim(const AccessInfo &info)
{
    const PlruTree &tree = trees_[info.set];
    const unsigned way = tree.findPlru();
    GIPPR_DCHECK(tree.position(way) == tree.ways() - 1);
    return way;
}

void
DgipprPolicy::onMiss(const AccessInfo &info)
{
    if (info.type == AccessType::Writeback)
        return;
    const int owner = ownerOf(info);
    if (owner == LeaderSets::kFollower)
        return;
    const auto leader = static_cast<unsigned>(owner);
    Domain &d = domains_[info.domain];
    ++d.leaderMisses[leader];
    d.selector.recordMiss(leader);
    d.winner = d.selector.winner();
    if (info.domain != 0)
        return;
    if (!duelMisses_.empty())
        duelMisses_[leader]->increment();
    if (duelWinner_)
        duelWinner_->set(d.winner);
}

void
DgipprPolicy::onInsert(unsigned way, const AccessInfo &info)
{
    trees_[info.set].setPosition(way, ipvFor(info).insertion());
}

void
DgipprPolicy::onHit(unsigned way, const AccessInfo &info)
{
    if (info.type == AccessType::Writeback)
        return;
    PlruTree &tree = trees_[info.set];
    tree.setPosition(way, ipvFor(info).promotion(tree.position(way)));
}

void
DgipprPolicy::onInvalidate(uint64_t set, unsigned way)
{
    trees_[set].setPosition(way, trees_[set].ways() - 1);
}

std::optional<unsigned>
DgipprPolicy::recencyPosition(uint64_t set, unsigned way) const
{
    return trees_[set].position(way);
}

std::string
DgipprPolicy::name() const
{
    return std::to_string(ipvs_.size()) + "-DGIPPR";
}

void
DgipprPolicy::attachTelemetry(telemetry::MetricRegistry &registry,
                              const std::string &prefix)
{
    duelMisses_.clear();
    for (size_t i = 0; i < ipvs_.size(); ++i)
        duelMisses_.push_back(&registry.counter(
            prefix + ".duel.leader_misses." + std::to_string(i)));
    duelWinner_ = &registry.gauge(prefix + ".duel.winner");
    duelWinner_->set(currentWinner());
}

} // namespace gippr
