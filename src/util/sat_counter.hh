/**
 * @file
 * Saturating counters, the basic state element of adaptive policies.
 *
 * Two flavours are provided:
 *  - SatCounter: unsigned, saturates at [0, 2^bits - 1]. Used for RRPVs,
 *    PDP per-line protecting distances.
 *  - DuelCounter: signed-style up/down counter over [0, 2^bits - 1] with
 *    a midpoint threshold, as used for set-dueling PSEL counters.
 */

#ifndef GIPPR_UTIL_SAT_COUNTER_HH_
#define GIPPR_UTIL_SAT_COUNTER_HH_

#include <cstdint>

#include "util/check.hh"

namespace gippr
{

/** Unsigned saturating counter of configurable width (1..31 bits). */
class SatCounter
{
  public:
    explicit SatCounter(unsigned bits = 2, uint32_t initial = 0)
        : max_((uint32_t{1} << bits) - 1), value_(initial)
    {
        GIPPR_CHECK(bits >= 1 && bits <= 31);
        GIPPR_CHECK(initial <= max_);
    }

    uint32_t value() const { return value_; }
    uint32_t maxValue() const { return max_; }
    bool saturatedHigh() const { return value_ == max_; }
    bool saturatedLow() const { return value_ == 0; }

    void
    increment()
    {
        if (value_ < max_)
            ++value_;
    }

    void
    decrement()
    {
        if (value_ > 0)
            --value_;
    }

    void
    set(uint32_t v)
    {
        GIPPR_CHECK(v <= max_);
        value_ = v;
    }

  private:
    uint32_t max_;
    uint32_t value_;
};

/**
 * Set-dueling PSEL counter.
 *
 * Counts up on misses attributed to policy A's leader sets and down on
 * policy B's; the follower sets use policy B while the counter is in
 * the upper half (A is missing more), and A otherwise.  Initialized to
 * the midpoint so neither policy starts with an advantage.
 */
class DuelCounter
{
  public:
    explicit DuelCounter(unsigned bits = 11)
        : counter_(bits, uint32_t{1} << (bits - 1))
    {
        GIPPR_CHECK(bits >= 2);
    }

    /** A leader-set miss for policy A. */
    void missA() { counter_.increment(); }
    /** A leader-set miss for policy B. */
    void missB() { counter_.decrement(); }

    /**
     * True when followers should use policy B (i.e. A has accumulated
     * more leader misses than B).
     */
    bool
    preferB() const
    {
        return counter_.value() >= (counter_.maxValue() / 2 + 1);
    }

    uint32_t raw() const { return counter_.value(); }

  private:
    SatCounter counter_;
};

} // namespace gippr

#endif // GIPPR_UTIL_SAT_COUNTER_HH_
