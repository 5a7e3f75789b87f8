/**
 * @file
 * Way-partitioning / QoS knobs for the shared LLC.
 *
 * Two mechanisms, both acting through per-core way masks on the
 * shared models:
 *
 *  - Static: fixed per-core way counts from the command line
 *    ("--partition static:8,4,2,2"), turned into contiguous way
 *    ranges once at startup.
 *  - Utility: UCP-style repartitioning (Qureshi & Patt's utility
 *    monitors).  Each core owns a shadow fully-associative LRU tag
 *    directory over a strided sample of sets; hits are histogrammed
 *    by stack position, which yields the core's miss curve "misses
 *    it would take with w ways".  Every repartitionEvery accesses
 *    the engine greedily re-allocates ways by marginal utility
 *    (lookahead of one way, minimum one way per core) and halves the
 *    histograms so old phases decay.
 *
 * Everything is deterministic: sampling is by set-index stride and
 * allocation ties break toward the lower core id, so scalar and fast
 * backends repartition at the same access ticks with the same masks.
 */

#ifndef GIPPR_SIM_MULTICORE_PARTITION_HH_
#define GIPPR_SIM_MULTICORE_PARTITION_HH_

#include <cstdint>
#include <string>
#include <vector>

namespace gippr::multicore
{

/** Partitioning discipline for a shared-LLC run. */
enum class PartitionMode
{
    None,    ///< free-for-all (no masks)
    Static,  ///< fixed per-core way counts
    Utility, ///< UCP-style periodic repartitioning
};

/** Stable display name. */
const char *partitionModeName(PartitionMode mode);

/** Partitioning knobs. */
struct PartitionConfig
{
    PartitionMode mode = PartitionMode::None;
    /** Per-core way counts (Static mode; must sum to <= assoc). */
    std::vector<unsigned> staticWays;
    /** Shared-cache accesses between utility repartitions. */
    uint64_t repartitionEvery = 256 * 1024;
    /** Set-index stride of the shadow monitors' sampled sets. */
    uint64_t sampleEvery = 32;
};

/**
 * Parse "none", "static:<w0>,<w1>,..." or "utility[:<every>]" for
 * @p cores cores; fatal on malformed specs.
 */
PartitionConfig parsePartition(const std::string &text, unsigned cores);

/**
 * Contiguous way masks from per-core way counts: core 0 gets ways
 * [0, n0), core 1 [n0, n0+n1), ...  Counts must be >= 1 each and sum
 * to <= assoc; any leftover ways join the last core's mask so the
 * whole cache stays allocatable.
 */
std::vector<uint64_t> masksFromCounts(const std::vector<unsigned> &counts,
                                      unsigned assoc);

/** Per-core way counts for an (almost) even split of @p assoc. */
std::vector<unsigned> evenSplit(unsigned cores, unsigned assoc);

/**
 * UCP utility monitor: per-core shadow LRU tag directories over
 * sampled sets, hit-position histograms and the greedy allocator.
 */
class UtilityMonitor
{
  public:
    UtilityMonitor(uint64_t sets, unsigned assoc, unsigned cores,
                   uint64_t sample_every);

    /** True when @p set belongs to the sampled stride. */
    bool sampled(uint64_t set) const { return rowOf_[set] != kUnsampled; }

    /**
     * Record one demand access by @p core (call only for sampled
     * sets).  Updates the core's shadow directory and histograms.
     */
    void observe(unsigned core, uint64_t set, uint64_t tag);

    /**
     * Greedy marginal-utility way allocation: every core starts at
     * one way; each remaining way goes to the core whose next way
     * captures the most shadow hits (ties to the lower core id).
     */
    std::vector<unsigned> allocate() const;

    /**
     * Shadow misses @p core would take with @p ways ways (its miss
     * curve evaluated at one point): shadow misses plus every shadow
     * hit at stack position >= ways.
     */
    uint64_t missesAt(unsigned core, unsigned ways) const;

    /** Halve all histograms (phase decay after a repartition). */
    void decay();

    const std::vector<uint64_t> &hitHistogram(unsigned core) const
    {
        return hits_[core];
    }

    uint64_t shadowMisses(unsigned core) const { return misses_[core]; }

  private:
    /** rowOf_ entry of a set outside the sampled stride. */
    static constexpr uint32_t kUnsampled = UINT32_MAX;

    unsigned assoc_;
    uint64_t sampledSets_;
    /** Shadow row of each set (its index among the sampled sets), or
     *  kUnsampled; a table, so the per-access path divides nothing. */
    std::vector<uint32_t> rowOf_;
    /** Shadow directory rows of assoc_ tags each, MRU first, row
     *  (core * sampledSets_ + rowOf_[set]); fill_ holds each row's
     *  valid-tag count. */
    std::vector<uint64_t> tags_;
    std::vector<unsigned> fill_;
    /** hits_[core][stack position]. */
    std::vector<std::vector<uint64_t>> hits_;
    std::vector<uint64_t> misses_;
};

} // namespace gippr::multicore

#endif // GIPPR_SIM_MULTICORE_PARTITION_HH_
