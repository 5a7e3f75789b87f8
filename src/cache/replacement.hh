/**
 * @file
 * The replacement-policy interface.
 *
 * A ReplacementPolicy owns all replacement metadata for one cache and
 * reacts to the cache's events: hits, misses, fills and invalidations.
 * Victim selection only considers valid lines (the cache fills invalid
 * ways itself, in way order, before consulting the policy).
 *
 * The interface exposes what the paper's policies use: set index,
 * way, block address and access type — nothing more — so every policy
 * here is implementable in real hardware given the same signals.
 *
 * Convention (also from the championship framework): writeback hits
 * do not update replacement recency — a dirty eviction arriving from
 * the level above says nothing about the block's future reuse, and
 * letting it promote blocks destroys insertion-policy properties such
 * as LIP's churn slot.  Writeback fills still initialize metadata via
 * onInsert.
 */

#ifndef GIPPR_CACHE_REPLACEMENT_HH_
#define GIPPR_CACHE_REPLACEMENT_HH_

#include <cstdint>
#include <optional>
#include <string>

#include "telemetry/metrics.hh"
#include "trace/record.hh"

namespace gippr
{

/** Per-access context handed to policy callbacks. */
struct AccessInfo
{
    /** Set index within this cache. */
    uint64_t set = 0;
    /** Block address (byte address >> blockShift). */
    uint64_t blockAddr = 0;
    /** Access kind. */
    AccessType type = AccessType::Load;
    /** Monotonic per-cache access sequence number (for offline MIN). */
    uint64_t sequence = 0;
    /** Duel domain: a shared cache keeps one set-dueling tournament
     *  per domain (DGIPPR's per-core duels); 0 everywhere else. */
    unsigned domain = 0;
    /** Ways the access may fill, bit w for way w (way partitioning);
     *  every way unless the caller restricts it. */
    uint64_t wayMask = ~uint64_t{0};
};

/**
 * Abstract replacement policy.
 *
 * Lifetimes: one policy instance serves one cache instance; it is
 * constructed knowing the geometry (sets and ways) it will manage.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /**
     * Choose the way to evict in a full set.
     * Called only when every way in @p info.set holds a valid line.
     *
     * @return way index in [0, assoc)
     */
    virtual unsigned victim(const AccessInfo &info) = 0;

    /** A miss occurred (called before fill, on every miss). */
    virtual void onMiss(const AccessInfo &info) { (void)info; }

    /**
     * Should this missing demand block bypass the cache entirely?
     * Consulted after onMiss and before any fill; a bypassed access
     * is serviced from below without allocating.  Only demand
     * accesses may bypass (writebacks must land).  Bypass violates
     * inclusion, so inclusive hierarchies must keep this false — the
     * paper evaluates PDP in non-bypass mode for exactly that reason,
     * and its future-work item 1 is a bypass-capable DGIPPR, which
     * BypassGipprPolicy implements.
     */
    virtual bool
    shouldBypass(const AccessInfo &info)
    {
        (void)info;
        return false;
    }

    /** Line filled into @p way (after any eviction). */
    virtual void onInsert(unsigned way, const AccessInfo &info) = 0;

    /** Hit on @p way. */
    virtual void onHit(unsigned way, const AccessInfo &info) = 0;

    /**
     * Recency position of the line in (@p set, @p way): 0 is the
     * most-recently-used end and assoc-1 the line victim() evicts.
     * Policies that keep a total recency order (the LRU stack, the
     * PseudoLRU tree) return it; the rest return std::nullopt.  A
     * way-masked fill reads it to evict the masked way closest to
     * eviction.
     */
    virtual std::optional<unsigned>
    recencyPosition(uint64_t set, unsigned way) const
    {
        (void)set;
        (void)way;
        return std::nullopt;
    }

    /** Line in (set, way) invalidated externally. */
    virtual void
    onInvalidate(uint64_t set, unsigned way)
    {
        (void)set;
        (void)way;
    }

    /** Human-readable policy name (appears in result tables). */
    virtual std::string name() const = 0;

    /**
     * Replacement metadata bits per cache set — the paper's headline
     * cost metric (e.g. 64 for full LRU at 16 ways, 15 for PLRU/GIPPR).
     */
    virtual size_t stateBitsPerSet() const = 0;

    /**
     * Global (per-cache, not per-set) metadata bits, e.g. DGIPPR's
     * three 11-bit dueling counters.
     */
    virtual size_t globalStateBits() const { return 0; }

    /**
     * Register this policy's live instruments under @p prefix (e.g.
     * set-dueling counters).  Policies cache the returned instrument
     * references; the registry must outlive the policy.  Default:
     * nothing to export.
     */
    virtual void
    attachTelemetry(telemetry::MetricRegistry &registry,
                    const std::string &prefix)
    {
        (void)registry;
        (void)prefix;
    }
};

} // namespace gippr

#endif // GIPPR_CACHE_REPLACEMENT_HH_
