/**
 * @file
 * Belady MIN implementation.
 */

#include "policies/belady.hh"

#include "util/bitops.hh"
#include "util/block_map.hh"
#include "util/log.hh"
#include "util/sse_row.hh"

namespace gippr
{

std::vector<uint32_t>
nextUseIndices(const Trace &trace, unsigned block_shift)
{
    if (trace.size() >= kNoNextUse)
        fatal("MIN: a trace of " + std::to_string(trace.size()) +
              " records overflows 32-bit next-use indices");
    std::vector<uint32_t> next(trace.size(), kNoNextUse);
    // Sized for a quarter of the records as distinct blocks; grown
    // (rehashed) past 3/4 load.
    BlockMap next_of_block(
        std::max(10u, ceilLog2(std::max<uint64_t>(trace.size() / 4, 1))));
    for (size_t i = trace.size(); i-- > 0;) {
        const uint64_t block = trace[i].addr >> block_shift;
        const auto index = static_cast<uint32_t>(i);
        if (uint32_t *later = next_of_block.find(block)) {
            next[i] = *later;
            *later = index;
        } else {
            if (next_of_block.full())
                next_of_block.grow();
            next_of_block.put(block, index);
        }
    }
    return next;
}

BeladyPolicy::BeladyPolicy(const CacheConfig &config, const Trace &trace)
    : ways_(config.assoc),
      nextUse_(nextUseIndices(trace, config.blockShift())),
      lineNextUse_(config.sets() * config.assoc, kNoNextUse)
{
}

unsigned
BeladyPolicy::victim(const AccessInfo &info)
{
    // Evict the line referenced farthest in the future; a line never
    // referenced again (kNoNextUse) wins immediately.
    unsigned best_way = 0;
    uint32_t best_next = 0;
    for (unsigned w = 0; w < ways_; ++w) {
        const uint32_t next = lineNextUse_[info.set * ways_ + w];
        if (next == kNoNextUse)
            return w;
        if (next > best_next) {
            best_next = next;
            best_way = w;
        }
    }
    return best_way;
}

void
BeladyPolicy::setNextUse(unsigned way, const AccessInfo &info)
{
    if (info.sequence >= nextUse_.size())
        panic("BeladyPolicy replayed beyond its trace");
    lineNextUse_[info.set * ways_ + way] = nextUse_[info.sequence];
}

void
BeladyPolicy::onInsert(unsigned way, const AccessInfo &info)
{
    setNextUse(way, info);
}

void
BeladyPolicy::onHit(unsigned way, const AccessInfo &info)
{
    setNextUse(way, info);
}

void
BeladyPolicy::onInvalidate(uint64_t set, unsigned way)
{
    lineNextUse_[set * ways_ + way] = kNoNextUse;
}

namespace
{

/**
 * MIN over flat per-line arrays: tags, one-byte tag signatures (the
 * row-scan filter) and the resident block's next-use index.  Nothing
 * is ever invalidated, so a set's valid ways are always the prefix
 * [0, filled) — the ways SetAssocCache fills first, in way order.
 */
class FlatMin
{
  public:
    explicit FlatMin(const CacheConfig &config)
        : ways_(config.assoc), tags_(config.sets() * config.assoc, 0),
          sig_(config.sets() * config.assoc, 0),
          next_(config.sets() * config.assoc, kNoNextUse),
          filled_(config.sets(), 0)
    {
    }

    /** One access whose block is next used at @p next; true on a
     *  miss. */
    bool
    access(uint64_t set, uint64_t tag, uint32_t next)
    {
        const uint64_t base = set * ways_;
        const unsigned filled = filled_[set];
        const int hit = findWay(base, tag, filled);
        if (hit >= 0) {
            next_[base + static_cast<unsigned>(hit)] = next;
            return false;
        }
        unsigned way;
        if (filled < ways_) {
            way = filled;
            filled_[set] = filled + 1;
        } else {
            way = victim(base);
        }
        tags_[base + way] = tag;
        sig_[base + way] = static_cast<uint8_t>(tag);
        next_[base + way] = next;
        return true;
    }

  private:
    int
    findWay(uint64_t base, uint64_t tag, unsigned filled) const
    {
#if GIPPR_SSE_ROWS
        if (ways_ == 16 || ways_ == 8) {
            // Signatures filter the row in one compare; candidates
            // verify against the full tag (valid tags are unique).
            const auto sig = static_cast<uint8_t>(tag);
            unsigned cand = ways_ == 16
                                ? SseRow<16>::equal(&sig_[base], sig)
                                : SseRow<8>::equal(&sig_[base], sig);
            for (cand &= lowMask(filled); cand != 0; cand &= cand - 1) {
                const auto w =
                    static_cast<unsigned>(countTrailingZeros(cand));
                if (tags_[base + w] == tag)
                    return static_cast<int>(w);
            }
            return -1;
        }
#endif
        for (unsigned w = 0; w < filled; ++w)
            if (tags_[base + w] == tag)
                return static_cast<int>(w);
        return -1;
    }

    /** First way with the farthest next use; kNoNextUse is farthest. */
    unsigned
    victim(uint64_t base) const
    {
        const uint32_t *next = &next_[base];
        unsigned best = 0;
        for (unsigned w = 1; w < ways_; ++w)
            if (next[w] > next[best])
                best = w;
        return best;
    }

    unsigned ways_;
    std::vector<uint64_t> tags_;
    std::vector<uint8_t> sig_;
    std::vector<uint32_t> next_;
    std::vector<uint32_t> filled_;
};

} // namespace

uint64_t
runMinMisses(const CacheConfig &config, const Trace &trace, size_t warmup)
{
    GIPPR_CHECK(warmup <= trace.size());
    config.validate();
    const std::vector<uint32_t> next =
        nextUseIndices(trace, config.blockShift());
    const AddressDecode decode(config);
    FlatMin min(config);
    uint64_t misses = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        const MemRecord &r = trace[i];
        const bool miss = min.access(decode.setIndex(r.addr),
                                     decode.tag(r.addr), next[i]);
        misses += miss && i >= warmup &&
                  r.type != AccessType::Writeback;
    }
    return misses;
}

} // namespace gippr
