/**
 * @file
 * True LRU implementation.
 */

#include "policies/lru.hh"

namespace gippr
{

LruPolicy::LruPolicy(const CacheConfig &config)
    : ways_(config.assoc)
{
    stacks_.assign(config.sets(), RecencyStack(ways_));
}

unsigned
LruPolicy::victim(const AccessInfo &info)
{
    return stacks_[info.set].lruWay();
}

void
LruPolicy::onInsert(unsigned way, const AccessInfo &info)
{
    stacks_[info.set].moveTo(way, 0);
}

void
LruPolicy::onHit(unsigned way, const AccessInfo &info)
{
    if (info.type == AccessType::Writeback)
        return;
    stacks_[info.set].moveTo(way, 0);
}

void
LruPolicy::onInvalidate(uint64_t set, unsigned way)
{
    // Demote invalidated lines to LRU so they are reused first.
    stacks_[set].moveTo(way, ways_ - 1);
}

std::optional<unsigned>
LruPolicy::recencyPosition(uint64_t set, unsigned way) const
{
    return stacks_[set].position(way);
}

} // namespace gippr
