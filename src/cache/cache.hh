/**
 * @file
 * Set-associative cache model with pluggable replacement.
 */

#ifndef GIPPR_CACHE_CACHE_HH_
#define GIPPR_CACHE_CACHE_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "telemetry/metrics.hh"

namespace gippr
{

/** Outcome of one cache access. */
struct AccessResult
{
    bool hit = false;
    /** The policy chose not to allocate this missing block. */
    bool bypassed = false;
    /** Way the block resides in after the access (unless bypassed). */
    unsigned way = 0;
    /** Block address of a line evicted to make room, if any. */
    std::optional<uint64_t> evictedBlock;
    /** True when the evicted line was dirty (writeback needed below). */
    bool evictedDirty = false;
};

/** Hit/miss statistics for one cache. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
    /** Demand misses serviced without allocating. */
    uint64_t bypasses = 0;
    /** Demand (non-writeback) accesses and misses. */
    uint64_t demandAccesses = 0;
    uint64_t demandMisses = 0;

    /** Field-wise sum (statistics of several runs combined). */
    CacheStats &
    operator+=(const CacheStats &o)
    {
        accesses += o.accesses;
        hits += o.hits;
        misses += o.misses;
        evictions += o.evictions;
        writebacks += o.writebacks;
        bypasses += o.bypasses;
        demandAccesses += o.demandAccesses;
        demandMisses += o.demandMisses;
        return *this;
    }

    bool operator==(const CacheStats &o) const = default;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

    /** Demand misses per kilo-instruction given a total inst count. */
    double
    mpki(uint64_t instructions) const
    {
        return instructions ? 1000.0 * static_cast<double>(demandMisses) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/**
 * One level of set-associative cache.
 *
 * Write-allocate, writeback.  The cache owns its replacement policy.
 * Invalid ways are filled in way order before the policy is asked for
 * a victim, matching typical simulator behaviour.
 */
class SetAssocCache
{
  public:
    /**
     * @param config  validated geometry
     * @param policy  replacement policy sized for this geometry
     */
    SetAssocCache(const CacheConfig &config,
                  std::unique_ptr<ReplacementPolicy> policy);

    /**
     * Perform one access.
     *
     * @param byte_addr  referenced byte address
     * @param type       access kind
     * @param domain     duel domain (AccessInfo::domain)
     * @param way_mask   ways the fill may use (AccessInfo::wayMask).
     *                   A mask covering only some of the ways fills
     *                   its first invalid way, else evicts its way at
     *                   the highest recency position; the policy must
     *                   then have one (fatal otherwise).  Lines
     *                   outside the mask still hit.
     */
    AccessResult access(uint64_t byte_addr, AccessType type,
                        unsigned domain = 0,
                        uint64_t way_mask = ~uint64_t{0});

    /** True if the block holding @p byte_addr is present (no update). */
    bool probe(uint64_t byte_addr) const;

    /** Invalidate the block holding @p byte_addr if present. */
    void invalidate(uint64_t byte_addr);

    /** Drop all lines and reset replacement state indirectly via fills. */
    void reset();

    /** Zero the statistics (e.g. after cache warmup). */
    void clearStats();

    /**
     * Mirror this cache's hit/miss/bypass/eviction/writeback events
     * into live registry counters named "<prefix>.hits" etc., and let
     * the policy export its own instruments (set-dueling counters)
     * under the same prefix.  The registry must outlive the cache;
     * counters are atomics, so many caches may share one registry
     * (they aggregate) or use distinct prefixes.  Unattached caches
     * pay only a predictable null-pointer branch per event.
     */
    void attachTelemetry(telemetry::MetricRegistry &registry,
                         const std::string &prefix);

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    ReplacementPolicy &policy() { return *policy_; }
    const ReplacementPolicy &policy() const { return *policy_; }

    /** Number of valid lines in @p set (test/diagnostic aid). */
    unsigned validCount(uint64_t set) const;

    /** Block address stored in (set, way), if valid. */
    std::optional<uint64_t> blockAt(uint64_t set, unsigned way) const;

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
    };

    Line &line(uint64_t set, unsigned way);
    const Line &line(uint64_t set, unsigned way) const;

    /** Find way holding @p tag in @p set, or assoc if absent. */
    unsigned findWay(uint64_t set, uint64_t tag) const;

    /** First invalid way of @p mask in @p set, or assoc if none. */
    unsigned findInvalidWay(uint64_t set, uint64_t mask) const;

    /** The way of @p mask at the highest recency position. */
    unsigned maskedVictim(uint64_t set, uint64_t mask) const;

    /** Registry counters mirrored on the access path (see
     *  attachTelemetry); all null until attached. */
    struct LiveCounters
    {
        telemetry::Counter *hits = nullptr;
        telemetry::Counter *demandMisses = nullptr;
        telemetry::Counter *bypasses = nullptr;
        telemetry::Counter *evictions = nullptr;
        telemetry::Counter *writebacks = nullptr;
    };

    CacheConfig config_;
    /** config_'s address split, derived once (the access path's). */
    AddressDecode decode_;
    /** One bit per way: the mask of an unrestricted access. */
    uint64_t allWays_ = 0;
    std::unique_ptr<ReplacementPolicy> policy_;
    std::vector<Line> lines_; // sets * assoc, row-major by set
    CacheStats stats_;
    LiveCounters live_;
    uint64_t sequence_ = 0;
};

/** Factory that builds a replacement policy for a given geometry. */
using PolicyFactory =
    std::function<std::unique_ptr<ReplacementPolicy>(const CacheConfig &)>;

} // namespace gippr

#endif // GIPPR_CACHE_CACHE_HH_
