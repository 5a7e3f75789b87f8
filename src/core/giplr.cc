/**
 * @file
 * GIPLR implementation.
 */

#include "core/giplr.hh"

#include "util/check.hh"
#include "util/log.hh"

namespace gippr
{

GiplrPolicy::GiplrPolicy(const CacheConfig &config, Ipv ipv)
    : ways_(config.assoc), ipv_(std::move(ipv)),
      stacks_(config.sets(), RecencyStack(config.assoc))
{
    if (ipv_.ways() != ways_)
        fatal("GIPLR: IPV arity does not match associativity");
}

unsigned
GiplrPolicy::victim(const AccessInfo &info)
{
    // The victim is always the block in the LRU position; the IPV only
    // changes how blocks travel through the stack.
    const unsigned way = stacks_[info.set].lruWay();
    GIPPR_DCHECK(stacks_[info.set].position(way) == ways_ - 1);
    return way;
}

void
GiplrPolicy::onInsert(unsigned way, const AccessInfo &info)
{
    // The incoming block replaces the victim at position k-1, then
    // moves to the insertion position V[k] (Section 2.1.2).  During
    // initial fills of a not-yet-full set the way may sit elsewhere;
    // normalizing through k-1 keeps the semantics identical either way.
    RecencyStack &stack = stacks_[info.set];
    stack.moveTo(way, ways_ - 1);
    stack.moveTo(way, ipv_.insertion());
}

void
GiplrPolicy::onHit(unsigned way, const AccessInfo &info)
{
    if (info.type == AccessType::Writeback)
        return;
    RecencyStack &stack = stacks_[info.set];
    const unsigned i = stack.position(way);
    stack.moveTo(way, ipv_.promotion(i));
}

void
GiplrPolicy::onInvalidate(uint64_t set, unsigned way)
{
    stacks_[set].moveTo(way, ways_ - 1);
}

std::optional<unsigned>
GiplrPolicy::recencyPosition(uint64_t set, unsigned way) const
{
    return stacks_[set].position(way);
}

} // namespace gippr
