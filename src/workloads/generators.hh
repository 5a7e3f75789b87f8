/**
 * @file
 * Synthetic memory-access generators.
 *
 * These stand in for the paper's SPEC CPU 2006 traces (see DESIGN.md,
 * substitution table).  Replacement-policy behaviour is driven by the
 * reuse-distance structure of the access stream; each generator
 * produces one archetypal structure, and the suite combines them into
 * benchmark-like named workloads:
 *
 *  - StreamGenerator:       zero-reuse sequential scans
 *  - LoopGenerator:         cyclic sweeps over a fixed working set
 *                           (thrashes LRU when the set exceeds the
 *                           cache; the LIP/BIP-friendly archetype)
 *  - PointerChaseGenerator: a random permutation cycle (dependent
 *                           chain, near-uniform long reuse distances)
 *  - ZipfGenerator:         skewed popularity (recency-friendly)
 *  - HotColdGenerator:      a resident hot set polluted by cold
 *                           streaming traffic (insertion policy matters)
 *  - StencilGenerator:      row sweeps with neighbour reuse
 *  - SdProfileGenerator:    reproduces an explicit stack-distance
 *                           histogram — the direct knob on reuse
 *  - PhasedGenerator:       time-multiplexes children (adaptivity)
 *  - MixGenerator:          statistically interleaves children
 *
 * All addresses are block-granular (multiplied by the block size);
 * every reference is a load or a store.
 */

#ifndef GIPPR_WORKLOADS_GENERATORS_HH_
#define GIPPR_WORKLOADS_GENERATORS_HH_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.hh"
#include "trace/trace.hh"
#include "util/rng.hh"

namespace gippr
{

/** Base class: a stateful stream of memory references. */
class AccessGenerator
{
  public:
    virtual ~AccessGenerator() = default;

    /** Produce the next reference. */
    virtual MemRecord next(Rng &rng) = 0;

    /** Generator family name (diagnostics). */
    virtual std::string name() const = 0;

  protected:
    /** Block size all generators emit addresses in. */
    static constexpr uint64_t kBlockBytes = 64;

    /** Helper: finish a record with common fields. */
    static MemRecord makeRecord(uint64_t block, uint32_t gap, bool write);

    /**
     * Instruction gaps with mean roughly @p mean_gap: 1 plus a
     * geometric draw of mean (mean_gap - 1), capped so the CPU model
     * sees bounded gaps.  A mean of at most 1 gives gaps of 1 and
     * draws nothing.
     */
    class GapSampler
    {
      public:
        explicit GapSampler(uint32_t mean_gap);

        uint32_t sample(Rng &rng) const;

      private:
        GeometricDist extra_;
    };
};

/** Common knobs shared by generators. */
struct GenParams
{
    /** Mean instruction gap between references. */
    uint32_t meanGap = 6;
    /** Fraction of references that are stores. */
    double writeFrac = 0.2;
    /** Base of the region this generator's blocks live in. */
    uint64_t regionBase = 0;
};

/** Sequential scan over a very large region; blocks never recur. */
class StreamGenerator : public AccessGenerator
{
  public:
    /**
     * @param params  common knobs
     * @param stride  block stride between consecutive references
     * @param wrap    region length in blocks before the scan wraps
     *                (choose >> cache so wrap reuse is cold)
     */
    StreamGenerator(const GenParams &params, uint64_t stride,
                    uint64_t wrap);

    MemRecord next(Rng &rng) override;
    std::string name() const override { return "stream"; }

  private:
    GenParams params_;
    GapSampler gaps_;
    uint64_t stride_;
    uint64_t wrap_;
    uint64_t cursor_ = 0;
};

/** Cyclic sweep over a fixed working set of blocks. */
class LoopGenerator : public AccessGenerator
{
  public:
    /** @param blocks working-set size in blocks */
    LoopGenerator(const GenParams &params, uint64_t blocks);

    MemRecord next(Rng &rng) override;
    std::string name() const override { return "loop"; }

  private:
    GenParams params_;
    GapSampler gaps_;
    uint64_t blocks_;
    uint64_t cursor_ = 0;
};

/** Random permutation cycle: dependent pointer chasing. */
class PointerChaseGenerator : public AccessGenerator
{
  public:
    /**
     * @param blocks  number of nodes in the chain
     * @param seed    permutation seed (stable per workload)
     */
    PointerChaseGenerator(const GenParams &params, uint64_t blocks,
                          uint64_t seed);

    MemRecord next(Rng &rng) override;
    std::string name() const override { return "chase"; }

  private:
    GenParams params_;
    GapSampler gaps_;
    std::vector<uint32_t> nextNode_;
    uint64_t current_ = 0;
};

/** Zipf-popularity references over a block population. */
class ZipfGenerator : public AccessGenerator
{
  public:
    /**
     * @param blocks  population size
     * @param theta   Zipf skew (0 = uniform)
     * @param seed    seed of the rank->block shuffling hash
     */
    ZipfGenerator(const GenParams &params, uint64_t blocks, double theta,
                  uint64_t seed);

    MemRecord next(Rng &rng) override;
    std::string name() const override { return "zipf"; }

  private:
    GenParams params_;
    GapSampler gaps_;
    ZipfSampler sampler_;
    uint64_t seed_;
};

/** Hot resident set plus cold streaming pollution. */
class HotColdGenerator : public AccessGenerator
{
  public:
    /**
     * @param hot_blocks  size of the reused hot set
     * @param hot_frac    probability a reference targets the hot set
     * @param cold_wrap   cold-stream region length in blocks
     */
    HotColdGenerator(const GenParams &params, uint64_t hot_blocks,
                     double hot_frac, uint64_t cold_wrap);

    MemRecord next(Rng &rng) override;
    std::string name() const override { return "hotcold"; }

  private:
    GenParams params_;
    GapSampler gaps_;
    uint64_t hotBlocks_;
    double hotFrac_;
    uint64_t coldWrap_;
    uint64_t coldCursor_ = 0;
};

/** Row-major sweeps with vertical neighbour reuse (stencil codes). */
class StencilGenerator : public AccessGenerator
{
  public:
    /**
     * @param row_blocks  blocks per grid row
     * @param rows        number of rows swept per pass
     */
    StencilGenerator(const GenParams &params, uint64_t row_blocks,
                     uint64_t rows);

    MemRecord next(Rng &rng) override;
    std::string name() const override { return "stencil"; }

  private:
    GenParams params_;
    GapSampler gaps_;
    uint64_t rowBlocks_;
    uint64_t rows_;
    uint64_t cursor_ = 0; // linear position in the pass
    unsigned phase_ = 0;  // which neighbour of the point we emit next
};

/**
 * Reuse-distance-profile generator.
 *
 * Keeps a ring of the most recently emitted blocks; each reference
 * either touches a brand-new block (compulsory) or re-touches the
 * block emitted d references ago, with d drawn from a weighted band
 * histogram.  The produced stream therefore has a directly controlled
 * reuse-distance mix — the quantity replacement policies respond to —
 * at O(1) cost per reference (reuse distance upper-bounds stack
 * distance, so bands placed beyond the cache size guarantee capacity
 * misses and bands well inside it guarantee hits).
 */
class SdProfileGenerator : public AccessGenerator
{
  public:
    /**
     * One histogram band: reuse at distances [lo, hi] (counted in
     * references) with the given relative weight.
     */
    struct Band
    {
        uint64_t lo;
        uint64_t hi;
        double weight;
    };

    /**
     * @param bands       reuse-distance bands
     * @param new_weight  relative weight of compulsory (new) blocks
     */
    SdProfileGenerator(const GenParams &params, std::vector<Band> bands,
                       double new_weight);

    MemRecord next(Rng &rng) override;
    std::string name() const override { return "sdprofile"; }

  private:
    GenParams params_;
    GapSampler gaps_;
    std::vector<Band> bands_;
    double newWeight_;
    double totalWeight_;
    std::vector<uint64_t> history_; // ring of recent blocks
    /**
     * Latest emission index of block regionBase + i at [i], one slot
     * per block so far: new blocks are allocated densely, as
     * regionBase + lastEmit_.size().  Only blocks still in the ring
     * are ever looked up.  A deque grows in small fixed blocks, with
     * no reallocation and no large transient buffer.
     */
    std::deque<uint64_t> lastEmit_;
    uint64_t emitted_ = 0; // total references so far
};

/** Deterministic phase multiplexer over child generators. */
class PhasedGenerator : public AccessGenerator
{
  public:
    struct Phase
    {
        std::unique_ptr<AccessGenerator> gen;
        uint64_t length; ///< references before switching
    };

    explicit PhasedGenerator(std::vector<Phase> phases);

    MemRecord next(Rng &rng) override;
    std::string name() const override { return "phased"; }

  private:
    std::vector<Phase> phases_;
    size_t current_ = 0;
    uint64_t emitted_ = 0;
};

/**
 * Multi-tenant KV-cache traffic: several user populations share one
 * cache, each issuing GET/SET requests for Zipf-popular keys.
 *
 * Every reference first picks a tenant by arrival weight, then draws a
 * key rank from that tenant's own Zipf sampler and scatters it over
 * the tenant's disjoint block range with a seeded hash — so streams
 * are fully determined by (tenants, seed, rng seed).  Optional key
 * churn re-salts the rank->block map every @p churn_every references,
 * modelling TTL expiry / key-set rotation: old keys go dead and the
 * new epoch's keys arrive cold.
 */
class KvCacheGenerator : public AccessGenerator
{
  public:
    /** One user population. */
    struct Tenant
    {
        /** Key population size, in blocks. */
        uint64_t keys;
        /** Zipf skew of the tenant's key popularity. */
        double theta;
        /** Relative share of arriving requests. */
        double weight;
        /** SET (store) fraction of the tenant's requests. */
        double writeFrac;
    };

    /**
     * @param tenants      populations sharing the cache (>= 1)
     * @param seed         key-scatter hash seed
     * @param churn_every  references between key-set rotations
     *                     (0 = keys never churn)
     */
    KvCacheGenerator(const GenParams &params, std::vector<Tenant> tenants,
                     uint64_t seed, uint64_t churn_every = 0);

    MemRecord next(Rng &rng) override;
    std::string name() const override { return "kvcache"; }

  private:
    struct TenantState
    {
        ZipfSampler sampler;
        uint64_t base;     ///< first block of the tenant's range
        double writeFrac;
    };

    GenParams params_;
    GapSampler gaps_;
    std::vector<TenantState> tenants_;
    std::vector<double> cumWeight_; ///< running arrival-weight sums
    uint64_t seed_;
    uint64_t churnEvery_;
    uint64_t emitted_ = 0;
};

/** Statistical interleaving of child generators. */
class MixGenerator : public AccessGenerator
{
  public:
    struct Component
    {
        std::unique_ptr<AccessGenerator> gen;
        double weight;
    };

    explicit MixGenerator(std::vector<Component> components);

    MemRecord next(Rng &rng) override;
    std::string name() const override { return "mix"; }

  private:
    std::vector<Component> components_;
    double totalWeight_;
};

/** Drive @p gen for @p accesses references into a Trace. */
Trace generateTrace(AccessGenerator &gen, uint64_t accesses, Rng &rng);

} // namespace gippr

#endif // GIPPR_WORKLOADS_GENERATORS_HH_
