/**
 * @file
 * Belady's MIN — the offline-optimal replacement policy.
 *
 * MIN evicts the block whose next reference lies farthest in the
 * future; it minimizes misses but requires perfect future knowledge,
 * so — exactly as in the paper — it is usable only in the trace-driven
 * miss simulator (the paper's "in-house trace-based LLC simulator"),
 * never under the performance model.
 *
 * Usage contract: construct from the exact LLC-level trace that will
 * then be replayed, one SetAssocCache::access() per record, against a
 * freshly constructed cache, so that AccessInfo::sequence lines up
 * with trace indices.  runMinMisses() computes the same misses
 * without the cache object.
 */

#ifndef GIPPR_POLICIES_BELADY_HH_
#define GIPPR_POLICIES_BELADY_HH_

#include <cstdint>
#include <limits>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/replacement.hh"
#include "trace/trace.hh"

namespace gippr
{

/** Next-use index of a record whose block is never referenced again. */
constexpr uint32_t kNoNextUse = std::numeric_limits<uint32_t>::max();

/**
 * For each record i of @p trace, the index of the next record touching
 * the same block (address >> @p block_shift), or kNoNextUse: one
 * backward scan over a flat block map.  Fatal when the trace has
 * kNoNextUse or more records, whose indices a uint32 cannot hold.
 */
std::vector<uint32_t> nextUseIndices(const Trace &trace,
                                     unsigned block_shift);

/** Offline MIN replacement over a fixed, known trace. */
class BeladyPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param config  geometry of the cache that will replay the trace
     * @param trace   the LLC access trace to be replayed
     */
    BeladyPolicy(const CacheConfig &config, const Trace &trace);

    unsigned victim(const AccessInfo &info) override;
    void onInsert(unsigned way, const AccessInfo &info) override;
    void onHit(unsigned way, const AccessInfo &info) override;
    void onInvalidate(uint64_t set, unsigned way) override;

    std::string name() const override { return "MIN"; }

    /**
     * MIN is not implementable; report the bookkeeping an oracle would
     * need as zero so overhead tables mark it specially.
     */
    size_t stateBitsPerSet() const override { return 0; }

  private:
    /** Record @p info's next use as (set, way)'s. */
    void setNextUse(unsigned way, const AccessInfo &info);

    unsigned ways_;
    /** For trace index i, the index of the next access to that block. */
    std::vector<uint32_t> nextUse_;
    /** Per (set, way): next-use index of the resident block. */
    std::vector<uint32_t> lineNextUse_;
};

/**
 * Replay @p trace against a cache of geometry @p config under MIN and
 * return the resulting demand-miss count (records with indices below
 * @p warmup are replayed but not counted).  Runs on flat per-line
 * arrays, not a SetAssocCache, with BeladyPolicy's exact transitions;
 * tests hold the two equal.
 */
uint64_t runMinMisses(const CacheConfig &config, const Trace &trace,
                      size_t warmup = 0);

} // namespace gippr

#endif // GIPPR_POLICIES_BELADY_HH_
