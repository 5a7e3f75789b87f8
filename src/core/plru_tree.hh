/**
 * @file
 * Tree-based PseudoLRU with recency-stack positions.
 *
 * Implements the four algorithms of the paper's Section 3 (Figures 5,
 * 6, 7 and 9):
 *
 *  - findPlru():           walk the plru bits from the root to find
 *                          the PLRU victim (Fig. 5)
 *  - promoteMru(way):      classic PLRU promotion — point every bit on
 *                          the leaf-to-root path away (Fig. 6)
 *  - position(way):        the block's position in the PseudoLRU
 *                          recency stack (Fig. 7)
 *  - setPosition(way, x):  write the path bits so the block occupies
 *                          position x (Fig. 9), the enabling mechanism
 *                          for GIPPR insertion/promotion
 *
 * Positions are derived leaf-to-root: bit i of a position comes from
 * the i-th node above the leaf — the plru bit itself for a right
 * child, its complement for a left child — so the root contributes the
 * most-significant bit.  For any bit assignment the k positions form a
 * permutation of 0..k-1, the PMRU block sits at 0, and the PLRU victim
 * at the all-ones position k-1.  An insertion or promotion touches at
 * most log2(k) bits, the property that makes PLRU (and hence GIPPR)
 * cheap: 15 bits per 16-way set versus 64 for full LRU.
 */

#ifndef GIPPR_CORE_PLRU_TREE_HH_
#define GIPPR_CORE_PLRU_TREE_HH_

#include <cstdint>
#include <vector>

namespace gippr
{

/** One set's PseudoLRU tree over @p ways leaves (power of two). */
class PlruTree
{
  public:
    /** @param ways associativity; power of two in [2, 256], else
     *  fatal() */
    explicit PlruTree(unsigned ways);

    unsigned ways() const { return ways_; }

    /** Number of internal-node bits (ways - 1). */
    unsigned numBits() const { return ways_ - 1; }

    /** The PLRU block: the leaf every plru bit points toward. */
    unsigned findPlru() const;

    /** Classic PLRU promotion of @p way to the PMRU position. */
    void promoteMru(unsigned way);

    /** Position of @p way in the PseudoLRU recency stack. */
    unsigned position(unsigned way) const;

    /** Write path bits so @p way occupies position @p x. */
    void setPosition(unsigned way, unsigned x);

    /** Leaf currently occupying position @p x (inverse of position). */
    unsigned wayAtPosition(unsigned x) const;

    /** Raw plru bit of internal node @p node (heap order, 0 = root). */
    bool bit(unsigned node) const;

    /** Set raw plru bit (test aid). */
    void setBit(unsigned node, bool value);

  private:
    unsigned parent(unsigned node) const { return (node - 1) / 2; }
    bool isRightChild(unsigned node) const { return node % 2 == 0; }
    unsigned leafNode(unsigned way) const { return ways_ - 1 + way; }

    unsigned ways_;
    unsigned levels_;
    std::vector<uint8_t> bits_; // internal nodes, heap order
};

} // namespace gippr

#endif // GIPPR_CORE_PLRU_TREE_HH_
