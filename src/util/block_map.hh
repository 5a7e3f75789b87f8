/**
 * @file
 * Flat open-addressing map from 64-bit block addresses to 32-bit
 * values.
 *
 * Belady MIN's next-use scan and PDP's reuse-distance sampler both
 * key a small value by block address.  std::unordered_map pays a heap
 * node per key; this map keeps every entry in one power-of-two slot
 * array (linear probing, Fibonacci hashing), so a lookup is one or two
 * cache lines and put() never allocates.  clear() is O(1): each
 * slot carries the generation it was written in, and only slots of
 * the current generation are live.  Iteration order is never exposed,
 * so results cannot depend on the hash.
 */

#ifndef GIPPR_UTIL_BLOCK_MAP_HH_
#define GIPPR_UTIL_BLOCK_MAP_HH_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hh"

namespace gippr
{

/** Block address -> uint32 map without per-key allocation. */
class BlockMap
{
  public:
    /** Empty map of 2^@p log2_capacity slots. */
    explicit BlockMap(unsigned log2_capacity)
        : slots_(size_t{1} << log2_capacity),
          shift_(64 - log2_capacity)
    {
        GIPPR_CHECK(log2_capacity >= 1 && log2_capacity < 40);
    }

    /** @p key's value, or nullptr when absent. */
    uint32_t *
    find(uint64_t key)
    {
        for (size_t i = home(key);; i = (i + 1) & mask()) {
            Slot &s = slots_[i];
            if (s.stamp != stamp_)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    /** Add absent @p key.  @pre !full() */
    void
    put(uint64_t key, uint32_t value)
    {
        GIPPR_DCHECK(!full());
        size_t i = home(key);
        while (slots_[i].stamp == stamp_)
            i = (i + 1) & mask();
        slots_[i] = {key, value, stamp_};
        ++size_;
    }

    /** Live entries. */
    size_t size() const { return size_; }

    /** True when one more put() would pass 3/4 load. */
    bool full() const { return (size_ + 1) * 4 > slots_.size() * 3; }

    /** Double the slot array, keeping every live entry. */
    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        --shift_;
        const uint32_t live = stamp_;
        stamp_ = 1;
        size_ = 0;
        for (const Slot &s : old)
            if (s.stamp == live)
                put(s.key, s.value);
    }

    /** Drop every entry in O(1). */
    void
    clear()
    {
        size_ = 0;
        if (++stamp_ == 0) {
            // Generation wrapped: retire every stamp explicitly.
            for (Slot &s : slots_)
                s.stamp = 0;
            stamp_ = 1;
        }
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        uint32_t value = 0;
        /** Generation that wrote the slot; live iff == stamp_. */
        uint32_t stamp = 0;
    };

    size_t mask() const { return slots_.size() - 1; }

    size_t
    home(uint64_t key) const
    {
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                   shift_);
    }

    std::vector<Slot> slots_;
    unsigned shift_;
    uint32_t stamp_ = 1;
    size_t size_ = 0;
};

} // namespace gippr

#endif // GIPPR_UTIL_BLOCK_MAP_HH_
