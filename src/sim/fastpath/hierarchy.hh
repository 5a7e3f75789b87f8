/**
 * @file
 * One core's private L1D and L2, and the cascade that feeds its LLC.
 *
 * The paper filters every CPU reference through a non-inclusive,
 * writeback, true-LRU L1D and L2; only the surviving stream reaches
 * the LLC policy under study.  Hierarchy::access is that cascade, and
 * it is written once here.  Each level keeps a set as one row of
 * tag words in recency order, MRU first (Hierarchy::Level), so a true
 * LRU access is one row compare and a shift.  tests/test_hierarchy.cc
 * checks the whole cascade against a scalar two-level SetAssocCache +
 * LruPolicy one over several geometries.  The caller supplies
 * the LLC as a callback, which gives the hierarchy its two roles:
 *
 *  1. In the performance simulator (simulateTrace) the callback is the
 *     LLC under study — a packed SoaCacheModel for the policies it
 *     packs, else SetAssocCache — and the returned HitLevel drives
 *     the CPU model's per-level latencies.
 *  2. As a *filter*: an LlcRecorder callback records the stream, which
 *     the GA fitness function, the fast replay engines and the offline
 *     MIN simulator consume.  filterToLlc() runs it over a materialized
 *     CPU trace; LlcTraceCache feeds it each simpoint's generator
 *     output chunk by chunk, so no CPU trace is ever held whole.
 */

#ifndef GIPPR_SIM_FASTPATH_HIERARCHY_HH_
#define GIPPR_SIM_FASTPATH_HIERARCHY_HH_

#include <cstdint>
#include <limits>
#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "trace/trace.hh"
#include "util/hot.hh"

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

/**
 * The LLC callback that records a filtered stream into a Trace.  Each
 * recorded access carries the instruction gaps of the CPU references
 * since the previous one, so MPKI denominators match the CPU trace; a
 * gap that overflows MemRecord::instGap is fatal.
 *
 * With @p keep_writebacks false the recorder keeps only what
 * demandOnlyTrace() would keep of the full stream (the records that
 * are not writebacks) and folds a dropped record's gap into the next
 * kept one.  It is then fatal wherever
 * recording the full stream or stripping it would be.
 */
class LlcRecorder
{
  public:
    LlcRecorder(Trace &out, bool keep_writebacks)
        : out_(out), keepWritebacks_(keep_writebacks)
    {
    }

    /** Credit the next CPU reference's gap; call it before handing
     *  that reference to Hierarchy::access. */
    void
    addGap(uint32_t gap)
    {
        pending_ += gap;
        ++cpuRecords_;
    }

    /** Record one access that reaches the LLC; reports a miss. */
    bool
    operator()(uint64_t addr, AccessType type)
    {
        // The first access after a run of filtered references absorbs
        // their accumulated gap.
        checkGap(pending_);
        MemRecord rec;
        rec.instGap = static_cast<uint32_t>(pending_);
        pending_ = 0;
        rec.addr = addr;
        rec.type = type;
        if (!keepWritebacks_ && type == AccessType::Writeback) {
            dropped_ += rec.instGap;
            return false;
        }
        const uint64_t gap = dropped_ + rec.instGap;
        checkGap(gap);
        dropped_ = 0;
        rec.instGap = static_cast<uint32_t>(gap);
        out_.append(rec);
        return false;
    }

  private:
    void
    checkGap(uint64_t gap) const
    {
        if (gap > std::numeric_limits<uint32_t>::max())
            overflow(gap);
    }

    [[noreturn]] void overflow(uint64_t gap) const;

    Trace &out_;
    bool keepWritebacks_;
    /** Gap since the previous access that reached the LLC. */
    uint64_t pending_ = 0;
    /** Gaps of the writebacks dropped since the last kept record. */
    uint64_t dropped_ = 0;
    /** CPU references credited so far. */
    uint64_t cpuRecords_ = 0;
};

/** The private L1D -> L2 of one core (true LRU at both levels). */
class Hierarchy
{
  public:
    /**
     * Builds the L1 and L2 of @p config; config.llc is the caller's.
     * A level whose geometry is invalid or outside 2..64 ways is
     * fatal.
     */
    explicit Hierarchy(const HierarchyConfig &config);

    /**
     * Service one CPU reference.  Every access that reaches the LLC
     * goes to @p llc as `bool llc(byte_addr, AccessType)`, which
     * returns whether the LLC hit: first the L2's dirty victims as
     * Writeback, then the demand itself.  A CPU record that is not a
     * load is a store here.
     *
     * @return the level that supplied the data
     */
    template <typename Llc>
    HitLevel access(const MemRecord &rec, Llc &&llc);

    /**
     * Run a CPU-level trace through L1+L2 only and return the access
     * stream that reaches the LLC, recorded by an LlcRecorder that
     * keeps writebacks.  Demand misses become Load/Store records; L2
     * dirty evictions become Writeback records.
     */
    static Trace filterToLlc(const Trace &cpu_trace,
                             const HierarchyConfig &config);

  private:
    /**
     * One private true-LRU level.  A set is a row of `assoc` words in
     * recency order, MRU first; a word is `tag << 2 | valid << 1 |
     * dirty`, and 0 is an invalid way, so a paper 8-way set is one
     * 64-byte line.  Lines are never invalidated, so the invalid ways
     * are the row's tail and fill before any valid line is evicted;
     * way identity never reaches an output.
     */
    class Level
    {
      public:
        /** Outcome of one access. */
        struct Step
        {
            bool hit;
            /** A valid dirty line was evicted ... */
            bool evictedDirty;
            /** ... from this byte address (set when evictedDirty). */
            uint64_t evictedAddr;
        };

        /** @p level names the level ("L1"/"L2") in a fatal message. */
        Level(const CacheConfig &config, const char *level);

        /**
         * A demand hit moves the line to the front and a store dirties
         * it; a writeback hit only dirties it.  A miss evicts the last
         * word, shifts the row down and fills the front, dirty unless
         * @p type is a Load.
         */
        GIPPR_HOT Step
        access(uint64_t byte_addr, AccessType type)
        {
            const uint64_t set = decode_.setIndex(byte_addr);
            uint64_t *row = rows_.data() + set * assoc_;
            const uint64_t key = decode_.tag(byte_addr) << 2 | kValid;
            const uint64_t dirty = type != AccessType::Load ? kDirty : 0;
            unsigned way = 0;
            while (way < assoc_ && (row[way] & ~kDirty) != key)
                ++way;
            const bool hit = way < assoc_;
            if (hit && type == AccessType::Writeback) {
                row[way] |= kDirty;
                return {true, false, 0};
            }
            const uint64_t victim = hit ? 0 : row[assoc_ - 1];
            const uint64_t word = (hit ? row[way] : key) | dirty;
            for (way = hit ? way : assoc_ - 1; way > 0; --way)
                row[way] = row[way - 1];
            row[0] = word;
            if (!(victim & kDirty))
                return {hit, false, 0};
            return {false, true,
                    decode_.blockOf(set, victim >> 2) << decode_.blockShift};
        }

      private:
        static constexpr uint64_t kDirty = 1;
        static constexpr uint64_t kValid = 2;

        AddressDecode decode_;
        unsigned assoc_;
        std::vector<uint64_t> rows_;
    };

    Level l1_;
    Level l2_;
};

template <typename Llc>
HitLevel
Hierarchy::access(const MemRecord &rec, Llc &&llc)
{
    const AccessType type =
        rec.type == AccessType::Load ? AccessType::Load : AccessType::Store;
    const Level::Step r1 = l1_.access(rec.addr, type);
    if (r1.hit)
        return HitLevel::L1;

    // The L1 victim writes back into the L2, which may evict in turn.
    if (r1.evictedDirty) {
        const Level::Step wb =
            l2_.access(r1.evictedAddr, AccessType::Writeback);
        if (wb.evictedDirty)
            llc(wb.evictedAddr, AccessType::Writeback);
    }

    const Level::Step r2 = l2_.access(rec.addr, type);
    if (r2.evictedDirty)
        llc(r2.evictedAddr, AccessType::Writeback);
    if (r2.hit)
        return HitLevel::L2;
    return llc(rec.addr, type) ? HitLevel::Llc : HitLevel::Memory;
}

} // namespace gippr

#endif // GIPPR_SIM_FASTPATH_HIERARCHY_HH_
