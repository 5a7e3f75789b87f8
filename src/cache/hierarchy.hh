/**
 * @file
 * One core's private L1D and L2, and the cascade that feeds its LLC.
 *
 * The paper filters every CPU reference through a non-inclusive,
 * writeback, true-LRU L1D and L2; only the surviving stream reaches
 * the LLC policy under study.  Hierarchy::access is that cascade, and
 * it is written once here.  Its caller supplies the LLC as a callback,
 * which gives the hierarchy its two roles:
 *
 *  1. In the performance simulator (simulateTrace) the callback is a
 *     SetAssocCache, and the returned HitLevel drives the CPU model's
 *     per-level latencies.
 *  2. As a *filter*: filterToLlc()'s callback records the stream, which
 *     the GA fitness function, the fast replay engines and the offline
 *     MIN simulator consume.
 */

#ifndef GIPPR_CACHE_HIERARCHY_HH_
#define GIPPR_CACHE_HIERARCHY_HH_

#include "cache/cache.hh"
#include "trace/trace.hh"

namespace gippr
{

/** Where a demand reference was satisfied. */
enum class HitLevel : uint8_t { L1, L2, Llc, Memory };

/** Per-level geometries of the full hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1 = CacheConfig::paperL1d();
    CacheConfig l2 = CacheConfig::paperL2();
    CacheConfig llc = CacheConfig::paperLlc();
};

/** The private L1D -> L2 of one core (true LRU at both levels). */
class Hierarchy
{
  public:
    /** Builds the L1 and L2 of @p config; config.llc is the caller's. */
    explicit Hierarchy(const HierarchyConfig &config);

    /**
     * Service one CPU reference.  Every access that reaches the LLC
     * goes to @p llc as `bool llc(byte_addr, AccessType, pc)`, which
     * returns whether the LLC hit: first the L2's dirty victims as
     * Writeback with pc 0, then the demand itself.
     *
     * @return the level that supplied the data
     */
    template <typename Llc>
    HitLevel access(const MemRecord &rec, Llc &&llc);

    /**
     * Run a CPU-level trace through L1+L2 only and return the access
     * stream that reaches the LLC.  Demand misses become Load/Store
     * records; L2 dirty evictions become write records (pc == 0).
     * Each record carries the instruction gaps of the references it
     * absorbed, so MPKI denominators match the original trace; a gap
     * that overflows MemRecord::instGap is fatal.
     */
    static Trace filterToLlc(const Trace &cpu_trace,
                             const HierarchyConfig &config);

  private:
    SetAssocCache l1_;
    SetAssocCache l2_;
};

template <typename Llc>
HitLevel
Hierarchy::access(const MemRecord &rec, Llc &&llc)
{
    const AccessType type =
        rec.isWrite ? AccessType::Store : AccessType::Load;
    const AccessResult r1 = l1_.access(rec.addr, type, rec.pc);
    if (r1.hit)
        return HitLevel::L1;

    // The L1 victim writes back into the L2, which may evict in turn.
    if (r1.evictedBlock && r1.evictedDirty) {
        const AccessResult wb =
            l2_.access(*r1.evictedBlock << l1_.config().blockShift(),
                       AccessType::Writeback, 0);
        if (wb.evictedBlock && wb.evictedDirty)
            llc(*wb.evictedBlock << l2_.config().blockShift(),
                AccessType::Writeback, uint64_t{0});
    }

    const AccessResult r2 = l2_.access(rec.addr, type, rec.pc);
    if (r2.evictedBlock && r2.evictedDirty)
        llc(*r2.evictedBlock << l2_.config().blockShift(),
            AccessType::Writeback, uint64_t{0});
    if (r2.hit)
        return HitLevel::L2;
    return llc(rec.addr, type, rec.pc) ? HitLevel::Llc : HitLevel::Memory;
}

} // namespace gippr

#endif // GIPPR_CACHE_HIERARCHY_HH_
