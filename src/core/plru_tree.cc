/**
 * @file
 * PseudoLRU tree implementation.
 */

#include "core/plru_tree.hh"

#include <string>

#include "util/bitops.hh"
#include "util/check.hh"
#include "util/log.hh"

namespace gippr
{

namespace
{

/**
 * @p ways if a tree can have that many leaves.  A user-supplied
 * geometry, not an invariant, so it is rejected in every build type
 * before any tree state is sized from it.
 */
unsigned
checkedWays(unsigned ways)
{
    if (ways < 2 || ways > 256 || !isPow2(ways))
        fatal("PseudoLRU tree needs a power-of-two associativity in "
              "[2, 256], got " +
              std::to_string(ways));
    return ways;
}

} // namespace

PlruTree::PlruTree(unsigned ways)
    : ways_(checkedWays(ways)), levels_(floorLog2(ways_)),
      bits_(ways_ - 1, 0)
{
}

unsigned
PlruTree::findPlru() const
{
    unsigned p = 0;
    while (p < ways_ - 1)
        p = bits_[p] ? 2 * p + 2 : 2 * p + 1;
    return p - (ways_ - 1);
}

void
PlruTree::promoteMru(unsigned way)
{
    GIPPR_CHECK(way < ways_);
    unsigned q = leafNode(way);
    while (q != 0) {
        unsigned par = parent(q);
        // Point the parent's bit away from this subtree.
        bits_[par] = isRightChild(q) ? 0 : 1;
        q = par;
    }
}

unsigned
PlruTree::position(unsigned way) const
{
    GIPPR_CHECK(way < ways_);
    unsigned x = 0;
    unsigned i = 0;
    unsigned q = leafNode(way);
    while (q != 0) {
        unsigned par = parent(q);
        // A right child's bit is the parent's plru bit; a left child's
        // is its complement: a 1 in the position means the eviction
        // walk would descend toward this node.
        unsigned bit_value = isRightChild(q)
                                 ? bits_[par]
                                 : static_cast<unsigned>(!bits_[par]);
        x |= bit_value << i;
        q = par;
        ++i;
    }
    return x;
}

void
PlruTree::setPosition(unsigned way, unsigned x)
{
    GIPPR_CHECK(way < ways_);
    GIPPR_CHECK(x < ways_);
    unsigned i = 0;
    unsigned q = leafNode(way);
    while (q != 0) {
        unsigned par = parent(q);
        unsigned bit_value = getBit(x, i);
        bits_[par] = static_cast<uint8_t>(
            isRightChild(q) ? bit_value : !bit_value);
        q = par;
        ++i;
    }
}

unsigned
PlruTree::wayAtPosition(unsigned x) const
{
    GIPPR_CHECK(x < ways_);
    unsigned p = 0;
    for (unsigned i = levels_; i-- > 0;) {
        // Going right contributes the parent's bit at index i; going
        // left contributes its complement.  Pick the child whose
        // contribution matches bit i of x.
        unsigned want = getBit(x, i);
        bool go_right = (bits_[p] == want);
        p = go_right ? 2 * p + 2 : 2 * p + 1;
    }
    return p - (ways_ - 1);
}

bool
PlruTree::bit(unsigned node) const
{
    GIPPR_CHECK(node < bits_.size());
    return bits_[node] != 0;
}

void
PlruTree::setBit(unsigned node, bool value)
{
    GIPPR_CHECK(node < bits_.size());
    bits_[node] = value ? 1 : 0;
}

} // namespace gippr
