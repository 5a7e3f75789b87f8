/**
 * @file
 * PseudoLRU policy implementation.
 */

#include "core/plru.hh"

namespace gippr
{

PlruPolicy::PlruPolicy(const CacheConfig &config)
    : trees_(config.sets(), PlruTree(config.assoc))
{
}

unsigned
PlruPolicy::victim(const AccessInfo &info)
{
    return trees_[info.set].findPlru();
}

void
PlruPolicy::onInsert(unsigned way, const AccessInfo &info)
{
    trees_[info.set].promoteMru(way);
}

void
PlruPolicy::onHit(unsigned way, const AccessInfo &info)
{
    if (info.type == AccessType::Writeback)
        return;
    trees_[info.set].promoteMru(way);
}

void
PlruPolicy::onInvalidate(uint64_t set, unsigned way)
{
    // Make the invalidated way the PLRU block so it is refilled first.
    trees_[set].setPosition(way, trees_[set].ways() - 1);
}

std::optional<unsigned>
PlruPolicy::recencyPosition(uint64_t set, unsigned way) const
{
    return trees_[set].position(way);
}

} // namespace gippr
