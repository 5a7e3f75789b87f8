/**
 * @file
 * GIPPR implementation.
 */

#include "core/gippr.hh"

#include "util/check.hh"
#include "util/log.hh"

namespace gippr
{

GipprPolicy::GipprPolicy(const CacheConfig &config, Ipv ipv)
    : ipv_(std::move(ipv)),
      trees_(config.sets(), PlruTree(config.assoc))
{
    if (ipv_.ways() != config.assoc)
        fatal("GIPPR: IPV arity does not match associativity");
}

unsigned
GipprPolicy::victim(const AccessInfo &info)
{
    const PlruTree &tree = trees_[info.set];
    const unsigned way = tree.findPlru();
    // The PLRU walk must land on the block in recency position k-1
    // (paper, Section 2.2: the tree always encodes a permutation).
    GIPPR_DCHECK(tree.position(way) == tree.ways() - 1);
    return way;
}

void
GipprPolicy::onInsert(unsigned way, const AccessInfo &info)
{
    trees_[info.set].setPosition(way, ipv_.insertion());
}

void
GipprPolicy::onHit(unsigned way, const AccessInfo &info)
{
    if (info.type == AccessType::Writeback)
        return;
    PlruTree &tree = trees_[info.set];
    const unsigned i = tree.position(way);
    tree.setPosition(way, ipv_.promotion(i));
}

void
GipprPolicy::onInvalidate(uint64_t set, unsigned way)
{
    trees_[set].setPosition(way, trees_[set].ways() - 1);
}

std::optional<unsigned>
GipprPolicy::recencyPosition(uint64_t set, unsigned way) const
{
    return trees_[set].position(way);
}

} // namespace gippr
