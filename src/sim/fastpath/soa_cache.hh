/**
 * @file
 * Structure-of-arrays cache model for the fast replay backend.
 *
 * The scalar simulator (SetAssocCache + a ReplacementPolicy object)
 * pays a virtual dispatch and several pointer chases per access.  The
 * fast backend packs the same state into flat arrays — one tag word
 * per line, one valid/dirty bitmask per set, one uint64 of PseudoLRU
 * tree bits per set, one byte per line of recency position, RRPV or
 * PDP protection — and specializes the per-access transition on the
 * policy family, so a whole trace replays branch-light over
 * contiguous memory.
 *
 * The packed PLRU kernels below are bit-for-bit transcriptions of
 * PlruTree's four algorithms (paper Figures 5/6/7/9) onto a single
 * word of heap-ordered node bits; tests/test_fastpath_equiv.cc checks
 * them exhaustively against PlruTree over every state for ways up to
 * 16.  SoaCacheModel then mirrors SetAssocCache::access event order
 * exactly (invalid-way fill before victim selection, writeback
 * conventions, demand-only duel updates), which is what makes the
 * scalar/fast equivalence guarantee provable by lock-step replay.
 */

#ifndef GIPPR_SIM_FASTPATH_SOA_CACHE_HH_
#define GIPPR_SIM_FASTPATH_SOA_CACHE_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "policies/pdp.hh"
#include "policies/set_dueling.hh"
#include "sim/fastpath/replay_spec.hh"
#include "util/bitops.hh"
#include "util/check.hh"
#include "util/hot.hh"
#include "util/rng.hh"
#include "util/sse_row.hh"

/**
 * The 8- and 16-way row operations (signature scan, recency victim,
 * recency shift, RRIP ageing, PDP decrement and victim) compare a
 * set's whole byte row in one SSE2 instruction (util/sse_row.hh);
 * other widths take the generic loops.
 *
 * The 32-wide batch kernel uses AVX2 and BMI2 pext through
 * per-function target attributes, so the library builds with baseline
 * flags and the replay engine selects the kernel at run time
 * (__builtin_cpu_supports).  One VPCMPEQB resolves the signature
 * scans of TWO genomes' 16-byte rows (a 32-lane compare), so a genome
 * pair shares each decoded record and the loop carries two
 * independent dependency chains.  Only compiled where the attributes
 * and the intrinsics exist; -DGIPPR_PORTABLE_KERNELS compiles it out
 * with the SSE2 rows.
 */
#if defined(__GNUC__) && defined(__x86_64__) && defined(GIPPR_SSE_ROWS)
#define GIPPR_BATCH_KERNELS 1
#include <immintrin.h>
#endif

namespace gippr::fastpath
{

/** PLRU victim: walk the packed bits from the root (Fig. 5). */
GIPPR_HOT inline unsigned
packedFindPlru(uint64_t word, unsigned ways)
{
    unsigned p = 0;
    while (p < ways - 1)
        p = ((word >> p) & 1) ? 2 * p + 2 : 2 * p + 1;
    return p - (ways - 1);
}

/** Recency-stack position of @p way in the packed tree (Fig. 7). */
GIPPR_HOT inline unsigned
packedPosition(uint64_t word, unsigned ways, unsigned way)
{
    unsigned x = 0;
    unsigned i = 0;
    unsigned q = ways - 1 + way;
    while (q != 0) {
        const unsigned par = (q - 1) / 2;
        const unsigned bit = (word >> par) & 1;
        // Right children (even heap index) contribute the parent's
        // bit, left children its complement.
        x |= (q % 2 == 0 ? bit : bit ^ 1u) << i;
        q = par;
        ++i;
    }
    return x;
}

/** Write path bits so @p way occupies position @p x (Fig. 9). */
GIPPR_HOT inline uint64_t
packedSetPosition(uint64_t word, unsigned ways, unsigned way, unsigned x)
{
    unsigned i = 0;
    unsigned q = ways - 1 + way;
    while (q != 0) {
        const unsigned par = (q - 1) / 2;
        const uint64_t bit = (x >> i) & 1;
        const uint64_t value = q % 2 == 0 ? bit : bit ^ 1u;
        word = (word & ~(uint64_t{1} << par)) | (value << par);
        q = par;
        ++i;
    }
    return word;
}

/** Classic PLRU promotion: point every path bit away (Fig. 6). */
GIPPR_HOT inline uint64_t
packedPromoteMru(uint64_t word, unsigned ways, unsigned way)
{
    unsigned q = ways - 1 + way;
    while (q != 0) {
        const unsigned par = (q - 1) / 2;
        const uint64_t value = q % 2 == 0 ? 0 : 1;
        word = (word & ~(uint64_t{1} << par)) | (value << par);
        q = par;
    }
    return word;
}


/**
 * Per-way tree tables for one pow2 associativity.
 *
 * Everything here depends only on the geometry, never on the policy
 * vectors or the cache contents, so the tables are built once per
 * process and shared read-only between models (forAssoc memoizes one
 * instance per associativity).  That matters for batched replay,
 * which constructs one model per genome per trace: the 16-way victim
 * LUT alone tabulates 2^15 tree states, and rebuilding it G times per
 * generation would swamp the replay itself.
 *
 * A leaf's path through the tree is fixed, so setPosition(word, way,
 * x) == (word & ~clearMask[way]) | deposit[way * assoc + x], and
 * position() is a gather of the path bits (pathNodes) xor the
 * left-child parity (parityXor).  This turns the per-access log(ways)
 * loops into a handful of independent instructions.
 */
struct TreeTables
{
    unsigned depth = 0;               ///< log2(assoc)
    std::vector<uint8_t> pathNodes;   ///< assoc * depth node indices
    std::vector<uint8_t> parityXor;   ///< assoc left-child parities
    std::vector<uint64_t> clearMask;  ///< assoc path-bit masks
    std::vector<uint64_t> deposit;    ///< assoc * assoc position bits
    /** Tree word -> PLRU victim, tabulated when the word fits 15
     *  bits (assoc <= 16); wider trees keep the root walk. */
    std::vector<uint8_t> victimLut;

    /** Shared tables for @p assoc (pow2, 2..64), built on first use. */
    static std::shared_ptr<const TreeTables> forAssoc(unsigned assoc);
};

/**
 * Packed replica of SetAssocCache + the policy of a ReplaySpec.
 *
 * The model covers every set of the geometry but is oblivious to
 * which accesses it is fed; the replay engine shards a trace by
 * feeding each model only its slice of the set space.  Models whose
 * spec couplesSets() — Dgippr and DRRIP own a tournament updated on
 * leader misses, BRRIP a throttle RNG, PDP a cache-wide sampler and
 * solver — must see the whole trace in order.
 *
 * A shared LLC is the same model with two additions, both taken per
 * access: a duel domain (each domain has its own rotated leader
 * table, LeaderSets::domainOwners, and its own tournament, winner and
 * leader-miss counts — DgipprPolicy's domains; DRRIP keeps its one
 * duel, as RripPolicy does) and a way mask restricting the fill,
 * which only the recency and tree families support
 * (keepsRecencyOrder).  One domain and a full mask is exactly the
 * single-core transition.
 */
class SoaCacheModel
{
  public:
    /** @p domains duel domains (>= 1); only Dgippr specs use more
     *  than the first. */
    SoaCacheModel(const ReplaySpec &spec, const CacheConfig &config,
                  unsigned domains = 1);

    /** True when the fast backend can pack this spec/geometry. */
    static bool supports(const ReplaySpec &spec,
                         const CacheConfig &config);

    /** Outcome of one access (mirror of AccessResult). */
    struct Step
    {
        bool hit = false;
        unsigned way = 0;
        bool evicted = false;
        bool evictedDirty = false;
        uint64_t evictedTag = 0;
    };

    /** Perform one access (defined inline: the replay hot path). */
    GIPPR_HOT Step access(uint64_t set, uint64_t tag, AccessType type);

    /**
     * Shared-LLC access: duel domain @p domain supplies the follower
     * winner and records leader misses, and the fill — first invalid
     * way, else the victim — is restricted to the ways of @p mask (a
     * non-empty subset of the geometry's ways).  The victim is the
     * mask's way at the highest recency position, which for a full
     * mask is the policy's own victim, so a full mask takes the
     * unmasked path.  Lines outside a mask persist until an access
     * whose mask covers them evicts them.  RRIP and PDP models keep
     * no recency order: they take full masks only (the caller
     * checks keepsRecencyOrder), and ignore @p domain.
     */
    GIPPR_HOT Step access(uint64_t set, uint64_t tag, AccessType type,
                          unsigned domain, uint64_t mask);

    /**
     * Batched hot path: the same transition as access() — the
     * equivalence tests enforce bit-identical results — but
     * specialized for the batch kernel's loop.  The stream-determined
     * counters (accesses, demandAccesses) are left to the caller,
     * which accumulates them once per chunk via addStreamCounters().
     * access() itself is kept on the straightforward reference path:
     * per-genome replay is the oracle the batched kernel is validated
     * against.
     */
    GIPPR_HOT Step accessBatched(uint64_t set, uint64_t tag,
                                 AccessType type)
    {
        return accessImpl<true>(set, tag, type, 0, wayMask_);
    }

#if GIPPR_BATCH_KERNELS
    /**
     * 32-lane paired variant of accessBatched() for 16-way geometries
     * on AVX2 + BMI2 hardware (engine-internal; dispatched per chunk):
     * one 256-bit VPCMPEQB compares @p a's and @p b's signature rows
     * for @p set against the broadcast tag byte — two 16-byte lanes,
     * 32 byte lanes total — and each genome then finishes through the
     * branch-free tail (accessResolved16).  The two models are
     * independent, so the tails form two overlapping dependency chains
     * and the decoded record is read once for the pair, halving the
     * chunk-buffer re-stream traffic that bounds wide batched replay.
     * Bit-identical per model to access();
     * tests/test_batched_equiv.cc enforces it.
     */
    GIPPR_HOT
    __attribute__((target("avx2,bmi2"), always_inline)) static inline
    void
    accessBatched32(SoaCacheModel &a, SoaCacheModel &b, uint64_t set,
                    uint64_t tag, AccessType type, Step &step_a,
                    Step &step_b);
#endif

    /** Credit @p accesses records (@p demand of them demand) to the
     *  counters; pairs with accessBatched(). */
    GIPPR_HOT void addStreamCounters(uint64_t accesses, uint64_t demand)
    {
        counters_.accesses += accesses;
        counters_.demandAccesses += demand;
    }

    /** Credit outcome counters accumulated in the chunk loop's
     *  registers; pairs with accessBatched32(), which leaves them to
     *  the caller. */
    GIPPR_HOT void addOutcomeCounters(uint64_t hits,
                            uint64_t demand_misses,
                            uint64_t evictions, uint64_t writebacks)
    {
        counters_.hits += hits;
        counters_.demandMisses += demand_misses;
        counters_.evictions += evictions;
        counters_.writebacks += writebacks;
    }

    /** Access by byte address (set/tag split per the geometry). */
    GIPPR_HOT Step accessAddr(uint64_t byte_addr, AccessType type);

    /**
     * Snapshot the counters: stats().measured reports everything
     * accumulated after the last call (the warmup convention).
     * Never calling it leaves measured == total.
     */
    void markWarmup() { warmupBase_ = counters_; }

    /**
     * Hint that @p set is about to be accessed.  Replay loops call
     * this a few records ahead of the access cursor: sets are
     * effectively random, so the tag/state rows miss L1 otherwise and
     * the lookahead hides that latency behind the in-flight accesses.
     */
    GIPPR_HOT void prefetchSet(uint64_t set) const
    {
        const uint64_t base = set * assoc_;
        __builtin_prefetch(&sig_[base]);
        __builtin_prefetch(&valid_[set]);
        // The tag row is the access path's only other dependent load
        // (signature candidates verify against it); a 16-way row
        // spans two lines.
        __builtin_prefetch(&tags_[base]);
        if (assoc_ > 8)
            __builtin_prefetch(&tags_[base + 8]);
        switch (family_) {
          case Family::Recency:
            __builtin_prefetch(&pos_[base]);
            break;
          case Family::Plru:
          case Family::TreeIpv:
            __builtin_prefetch(&tree_[set]);
            break;
          case Family::Rrip:
            __builtin_prefetch(&rrpv_[base]);
            break;
          case Family::Pdp:
            __builtin_prefetch(&prot_[base]);
            __builtin_prefetch(&pdpSets_[set]);
            break;
        }
    }

    /** True when global state couples the sets, so replay order
     *  across sets is load-bearing (see couplesSets()). */
    bool couplesSets() const { return couples_; }

    /** True for the families the paired AVX2 tail (accessBatched32)
     *  implements: those that keepsRecencyOrder() (recency, PLRU and
     *  tree-IPV). */
    bool pairable() const { return ordered_; }

    /**
     * Statistics so far; for Dgippr and DRRIP models the duel fields
     * (finalWinner, duelCounters, leaderMisses) are those of the
     * first duel domain (see duelStats()).
     */
    ReplayStats stats() const;

    /** stats().measured as CacheStats (ScalarModel's twin). */
    CacheStats cacheStats() const { return stats().toCacheStats(); }

    /**
     * Write duel domain @p domain's state — final winner, PSEL
     * counters, leader misses — into @p out's duel fields.  Leaves
     * them untouched unless the model is a Dgippr or DRRIP model;
     * DRRIP reports its one duel for every domain and no leader
     * misses (scalarDuelStats's convention).
     */
    void duelStats(unsigned domain, ReplayStats &out) const;

    uint64_t sets() const { return sets_; }
    unsigned assoc() const { return assoc_; }

    /** Set index / tag of a byte address (replay plumbing). */
    uint64_t setIndex(uint64_t byte_addr) const
    {
        return decode_.setIndex(byte_addr);
    }
    uint64_t tagOf(uint64_t byte_addr) const
    {
        return decode_.tag(byte_addr);
    }

    /**
     * Per-way replacement state of @p set (equivalence probe): the
     * recency position (recency and tree families), the RRPV (RRIP),
     * or the remaining protection plus 256 when the reuse bit is set
     * (PDP).
     */
    std::vector<unsigned> lineState(uint64_t set) const;

    bool validAt(uint64_t set, unsigned way) const;
    bool dirtyAt(uint64_t set, unsigned way) const;

    /** Full shard-state rendering of one set (divergence dumps). */
    std::string dumpSet(uint64_t set) const;

  private:
    /** Transition family the access path switches on. */
    enum class Family : uint8_t
    {
        Recency, ///< Lru / Lip / Giplr: byte positions + moveTo
        Plru,    ///< classic tree: promote-to-MRU
        TreeIpv, ///< Gippr / Dgippr: packed tree + IPV positions
        Rrip,    ///< RRPV byte per line, age-to-distant victim
        Pdp,     ///< protection byte per line + per-set reuse bits
    };

    /** PDP's per-set cadence (PdpPolicy::SetState). */
    struct PdpSet
    {
        uint16_t tick = 0;
        uint32_t accessCount = 0;
    };

    /** One duel domain's tournament (Dgippr, DRRIP). */
    struct DuelDomain
    {
        TournamentSelector selector;
        unsigned winner = 0;
        std::vector<uint64_t> leaderMisses;
    };

    unsigned ipvIndexFor(unsigned domain, uint64_t set) const;
    void recordDuelMiss(unsigned domain, uint64_t set);
    template <bool Batched>
    Step accessImpl(uint64_t set, uint64_t tag, AccessType type,
                    unsigned domain, uint64_t mask);
    unsigned maskedVictim(uint64_t set, uint64_t base,
                          uint64_t mask) const;
    void moveTo(uint8_t *pos, unsigned way, unsigned to);
    unsigned recencyVictim(const uint8_t *pos) const;
    int findWay(uint64_t base, uint64_t tag, uint64_t valid) const;
    unsigned rripVictim(uint8_t *row);
    uint8_t rripInsertion(uint64_t set);
    unsigned pdpVictim(uint64_t set) const;
    void pdpTouch(uint64_t set, uint64_t tag, unsigned way, bool reused);
#if GIPPR_SSE_ROWS
    /** The row operations on a whole @p Ways-byte row (8 or 16) in
     *  one SSE register; the 16-way recency and signature ones also
     *  serve the batch kernel's tail. */
    template <unsigned Ways>
    static void moveToRow(uint8_t *pos, unsigned way, unsigned to);
    template <unsigned Ways>
    static unsigned recencyVictimRow(const uint8_t *pos);
    template <unsigned Ways>
    int findWayRow(uint64_t base, uint64_t tag, uint64_t valid) const;
    template <unsigned Ways>
    static unsigned rripVictimRow(uint8_t *row, uint8_t max);
    template <unsigned Ways>
    static unsigned pdpVictimRow(const uint8_t *row, unsigned reused);
#endif
#if GIPPR_BATCH_KERNELS
    /** Branch-free per-genome tail of the 32-wide kernel: everything
     *  after the signature scan, taking the raw 16-bit
     *  signature-match mask (not yet masked with valid). */
    GIPPR_HOT
    __attribute__((target("bmi2"), always_inline)) inline Step
    accessResolved16(uint64_t set, uint64_t tag, AccessType type,
                     unsigned sig_match);
#endif
    unsigned treePositionOf(uint64_t word, unsigned way) const;

    // Geometry.
    uint64_t sets_;
    unsigned assoc_;
    AddressDecode decode_;
    uint64_t wayMask_;

    // Policy.
    Family family_;
    bool duel_ = false;
    bool couples_ = false;
    /** keepsRecencyOrder(spec): partial way masks and pairing. */
    bool ordered_ = false;
    /** promo_[v][i] = new position on a hit at position i; one row
     *  per candidate vector. */
    std::vector<std::vector<uint8_t>> promo_;
    /** insert_[v] = insertion position of vector v. */
    std::vector<uint8_t> insert_;

    // Packed per-set / per-line state.
    std::vector<uint64_t> tags_;  // sets * assoc
    std::vector<uint8_t> sig_;    // low tag byte per line (scan filter)
    std::vector<uint64_t> valid_; // bitmask per set
    std::vector<uint64_t> dirty_; // bitmask per set
    std::vector<uint64_t> tree_;  // PLRU node bits per set
    std::vector<uint8_t> pos_;    // sets * assoc (recency family)

    // RRIP family.
    std::vector<uint8_t> rrpv_; // sets * assoc
    uint8_t rrpvMax_ = 0;
    /** Static insertion RRPV: max - 1, or RRIP-IPV's insertion. */
    uint8_t rrpvInsert_ = 0;
    /** rrpvPromo_[r] = RRPV after a demand hit at RRPV r: 0 for
     *  SRRIP/BRRIP/DRRIP, RRIP-IPV's promotion vector otherwise. */
    std::vector<uint8_t> rrpvPromo_;
    RripPolicy::Mode rripMode_ = RripPolicy::Mode::Static;
    unsigned epsilonInv_ = 1;
    /** BRRIP's throttle (also DRRIP's BRRIP fills). */
    Rng rng_;

    // PDP.
    std::vector<uint8_t> prot_;    // sets * assoc remaining protection
    std::vector<uint64_t> reused_; // reuse bitmask per set
    std::vector<PdpSet> pdpSets_;
    std::optional<PdpController> pdp_;

    /**
     * Shared per-way tree tables (pow2-way families); see TreeTables.
     * The raw pointers alias tables_'s arrays so the access path pays
     * no shared_ptr indirection — victimLut_ is null when the word is
     * too wide to tabulate (assoc > 16).
     */
    std::shared_ptr<const TreeTables> tables_;
    unsigned depth_ = 0;
    const uint8_t *pathNodes_ = nullptr;  // assoc * depth
    const uint8_t *parityXor_ = nullptr;  // assoc
    const uint64_t *clearMask_ = nullptr; // assoc
    const uint64_t *deposit_ = nullptr;   // assoc * assoc
    const uint8_t *victimLut_ = nullptr;  // 2^(assoc-1) entries
    /** Fused promotion / insertion deposits for the TreeIpv family:
     *  promoDeposit_[(v * assoc + way) * assoc + i] =
     *  deposit_[way * assoc + promo_[v][i]], and insertDeposit_[v *
     *  assoc + way] likewise through insert_[v] — one load on the
     *  hit / fill path instead of two dependent ones. */
    std::vector<uint64_t> promoDeposit_;
    std::vector<uint64_t> insertDeposit_;
    /**
     * Fully fused hit-promotion deposits for the batched path: a
     * way's stack position depends only on its own path bits, so
     * extracting them (pext against clearMask_) yields a dense
     * 2^depth index and fusedPromo_[((v * assoc + way) << depth) +
     * pathBits] is the promotion deposit in ONE L1-resident load —
     * vecs * assoc * 2^depth words (2KB for one 16-way vector) —
     * replacing the reference path's serial position gather plus
     * promoDeposit_ load.
     */
    std::vector<uint64_t> fusedPromo_;

    // Set dueling (Dgippr and DRRIP).
    /** Flat leader-owner tables, domain-major: owners_[d * sets + s]
     *  is the leading vector of set s in domain d (duel models index
     *  this on every access; LeaderSets::owner is an outlined call). */
    std::vector<int8_t> owners_;
    std::vector<DuelDomain> duels_;

    /**
     * Whole-trace counters; stats() derives misses (accesses - hits)
     * and the measured bank (counters - warmupBase).  Keeping one
     * bank and deriving the rest halves the hot path's counter work.
     */
    CounterBank counters_;
    CounterBank warmupBase_;
};

inline unsigned
SoaCacheModel::ipvIndexFor(unsigned domain, uint64_t set) const
{
    if (!duel_)
        return 0;
    const int owner = owners_[domain * sets_ + set];
    return owner != LeaderSets::kFollower ? static_cast<unsigned>(owner)
                                          : duels_[domain].winner;
}

inline void
SoaCacheModel::recordDuelMiss(unsigned domain, uint64_t set)
{
    const int owner = owners_[domain * sets_ + set];
    if (owner != LeaderSets::kFollower) {
        DuelDomain &d = duels_[domain];
        ++d.leaderMisses[static_cast<unsigned>(owner)];
        d.selector.recordMiss(static_cast<unsigned>(owner));
        d.winner = d.selector.winner();
    }
}

#if GIPPR_SSE_ROWS
template <unsigned Ways>
inline void
SoaCacheModel::moveToRow(uint8_t *pos, unsigned way, unsigned to)
{
    // Branch-free: the increment region [to, from) and the decrement
    // region (from, to] cannot both be non-empty, so applying both
    // masks unconditionally is the exact shift for either direction
    // (and a no-op when to == from).  Positions are < 64, so signed
    // byte compares are safe.
    const unsigned from = pos[way];
    const __m128i v = SseRow<Ways>::load(pos);
    const __m128i inc = _mm_and_si128(
        _mm_cmpgt_epi8(v, _mm_set1_epi8(static_cast<char>(
                              static_cast<int>(to) - 1))),
        _mm_cmplt_epi8(v,
                       _mm_set1_epi8(static_cast<char>(from))));
    const __m128i dec = _mm_and_si128(
        _mm_cmpgt_epi8(v, _mm_set1_epi8(static_cast<char>(from))),
        _mm_cmplt_epi8(v, _mm_set1_epi8(static_cast<char>(
                              static_cast<int>(to) + 1))));
    // Subtracting a -1 mask adds one; adding it subtracts one.
    SseRow<Ways>::store(pos, _mm_add_epi8(_mm_sub_epi8(v, inc), dec));
    pos[way] = static_cast<uint8_t>(to);
}

template <unsigned Ways>
inline unsigned
SoaCacheModel::recencyVictimRow(const uint8_t *pos)
{
    const unsigned match = SseRow<Ways>::equal(pos, Ways - 1);
    GIPPR_DCHECK(match != 0);
    return static_cast<unsigned>(countTrailingZeros(match));
}

template <unsigned Ways>
inline int
SoaCacheModel::findWayRow(uint64_t base, uint64_t tag,
                          uint64_t valid) const
{
    // One-byte signatures filter the row in a single compare;
    // candidates (usually exactly the hit way) verify against the
    // full tag.  Valid tags are unique per set, so the first verified
    // candidate is THE match.
    unsigned cand = SseRow<Ways>::equal(&sig_[base],
                                        static_cast<uint8_t>(tag)) &
                    static_cast<unsigned>(valid);
    while (cand != 0) {
        const unsigned w = static_cast<unsigned>(countTrailingZeros(cand));
        if (tags_[base + w] == tag)
            return static_cast<int>(w);
        cand &= cand - 1;
    }
    return -1;
}

template <unsigned Ways>
inline unsigned
SoaCacheModel::rripVictimRow(uint8_t *row, uint8_t max)
{
    // RripPolicy ages the row one step at a time until a lane reaches
    // max; the first lane to get there is the first holding the row's
    // maximum, and the loop adds (max - rowmax) to every lane.
    const __m128i v = SseRow<Ways>::load(row);
    const __m128i top = SseRow<Ways>::max(v);
    const unsigned victim = SseRow<Ways>::mask(_mm_cmpeq_epi8(v, top));
    const __m128i age =
        _mm_sub_epi8(_mm_set1_epi8(static_cast<char>(max)), top);
    SseRow<Ways>::store(row, _mm_add_epi8(v, age));
    return static_cast<unsigned>(countTrailingZeros(victim));
}

template <unsigned Ways>
inline unsigned
SoaCacheModel::pdpVictimRow(const uint8_t *row, unsigned reused)
{
    // PdpPolicy::victim on one row (see pdpVictim's generic loop).
    const __m128i v = SseRow<Ways>::load(row);
    const unsigned zero =
        SseRow<Ways>::mask(_mm_cmpeq_epi8(v, _mm_setzero_si128()));
    if (zero != 0)
        return static_cast<unsigned>(countTrailingZeros(zero));
    // Every lane is protected (>= 1) from here on.
    const unsigned fresh = ~reused & ((1u << Ways) - 1);
    if (fresh != 0) {
        // Spread the reuse bits to byte lanes (lane i tests bit i) and
        // zero the reused lanes, which then never reach the fresh
        // maximum.
        __m128i bits = _mm_cvtsi32_si128(static_cast<int>(reused));
        bits = _mm_unpacklo_epi8(bits, bits);
        bits = _mm_unpacklo_epi16(bits, bits);
        bits = _mm_unpacklo_epi32(bits, bits);
        const __m128i lane_bit = _mm_set1_epi64x(
            static_cast<long long>(0x8040201008040201ULL));
        const __m128i reused_lanes =
            _mm_cmpeq_epi8(_mm_and_si128(bits, lane_bit), lane_bit);
        const __m128i top =
            SseRow<Ways>::max(_mm_andnot_si128(reused_lanes, v));
        return static_cast<unsigned>(countTrailingZeros(
            SseRow<Ways>::mask(_mm_cmpeq_epi8(v, top)) & fresh));
    }
    return static_cast<unsigned>(countTrailingZeros(SseRow<Ways>::mask(
        _mm_cmpeq_epi8(v, SseRow<Ways>::max(v)))));
}
#endif

inline void
SoaCacheModel::moveTo(uint8_t *pos, unsigned way, unsigned to)
{
    // RecencyStack semantics: slide the interval between the old and
    // new positions by one.
#if GIPPR_SSE_ROWS
    if (assoc_ == 16)
        return moveToRow<16>(pos, way, to);
    if (assoc_ == 8)
        return moveToRow<8>(pos, way, to);
#endif
    const unsigned from = pos[way];
    if (to < from) {
        for (unsigned w = 0; w < assoc_; ++w)
            pos[w] = static_cast<uint8_t>(
                pos[w] + ((pos[w] >= to) & (pos[w] < from)));
    } else if (to > from) {
        for (unsigned w = 0; w < assoc_; ++w)
            pos[w] = static_cast<uint8_t>(
                pos[w] - ((pos[w] > from) & (pos[w] <= to)));
    }
    pos[way] = static_cast<uint8_t>(to);
}

inline unsigned
SoaCacheModel::recencyVictim(const uint8_t *pos) const
{
#if GIPPR_SSE_ROWS
    if (assoc_ == 16)
        return recencyVictimRow<16>(pos);
    if (assoc_ == 8)
        return recencyVictimRow<8>(pos);
#endif
    const uint8_t last = static_cast<uint8_t>(assoc_ - 1);
    uint64_t match = 0;
    for (unsigned w = 0; w < assoc_; ++w)
        match |= uint64_t{pos[w] == last} << w;
    GIPPR_DCHECK(match != 0); // positions are always a permutation
    return static_cast<unsigned>(countTrailingZeros(match));
}

inline int
SoaCacheModel::findWay(uint64_t base, uint64_t tag,
                       uint64_t valid) const
{
#if GIPPR_SSE_ROWS
    if (assoc_ == 16)
        return findWayRow<16>(base, tag, valid);
    if (assoc_ == 8)
        return findWayRow<8>(base, tag, valid);
#endif
    const uint64_t *tags = &tags_[base];
    uint64_t match = 0;
    for (unsigned w = 0; w < assoc_; ++w)
        match |= uint64_t{tags[w] == tag} << w;
    match &= valid;
    return match != 0 ? static_cast<int>(countTrailingZeros(match))
                      : -1;
}

inline unsigned
SoaCacheModel::rripVictim(uint8_t *row)
{
#if GIPPR_SSE_ROWS
    if (assoc_ == 16)
        return rripVictimRow<16>(row, rrpvMax_);
    if (assoc_ == 8)
        return rripVictimRow<8>(row, rrpvMax_);
#endif
    uint8_t top = 0;
    for (unsigned w = 0; w < assoc_; ++w)
        top = row[w] > top ? row[w] : top;
    unsigned victim = assoc_;
    const auto age = static_cast<uint8_t>(rrpvMax_ - top);
    for (unsigned w = 0; w < assoc_; ++w) {
        if (row[w] == top && victim == assoc_)
            victim = w;
        row[w] = static_cast<uint8_t>(row[w] + age);
    }
    return victim;
}

inline uint8_t
SoaCacheModel::rripInsertion(uint64_t set)
{
    // RripPolicy::onInsert: DRRIP leaders insert with their own
    // member, followers with the winner (0 SRRIP, 1 BRRIP).
    if (rripMode_ == RripPolicy::Mode::Static ||
        (rripMode_ == RripPolicy::Mode::Dynamic && ipvIndexFor(0, set) == 0))
        return rrpvInsert_;
    return rng_.nextBounded(epsilonInv_) == 0
               ? static_cast<uint8_t>(rrpvMax_ - 1)
               : rrpvMax_;
}

inline unsigned
SoaCacheModel::pdpVictim(uint64_t set) const
{
    const uint8_t *row = &prot_[set * assoc_];
    const uint64_t reused = reused_[set];
#if GIPPR_SSE_ROWS
    if (assoc_ == 16)
        return pdpVictimRow<16>(row, static_cast<unsigned>(reused));
    if (assoc_ == 8)
        return pdpVictimRow<8>(row, static_cast<unsigned>(reused));
#endif
    // PdpPolicy::victim: the first unprotected line, else the first
    // most-protected line not yet reused, else the first
    // most-protected line.
    unsigned best = assoc_;
    unsigned fallback = 0;
    for (unsigned w = 0; w < assoc_; ++w) {
        const uint8_t p = row[w];
        if (p == 0)
            return w;
        if (((reused >> w) & 1) == 0 && (best == assoc_ || p > row[best]))
            best = w;
        if (p > row[fallback])
            fallback = w;
    }
    return best != assoc_ ? best : fallback;
}

inline void
SoaCacheModel::pdpTouch(uint64_t set, uint64_t tag, unsigned way,
                        bool reused)
{
    // PdpPolicy::touch on the packed rows: sample, advance the set's
    // decrement cadence, protect the touched line.
    PdpController &control = *pdp_;
    PdpSet &st = pdpSets_[set];
    if (control.sampled(set))
        control.sample(decode_.blockOf(set, tag), st.accessCount);
    ++st.accessCount;
    uint8_t *row = &prot_[set * assoc_];
    if (++st.tick >= control.decrementPeriod()) {
        st.tick = 0;
#if GIPPR_SSE_ROWS
        if (assoc_ == 16) {
            SseRow<16>::store(row, _mm_subs_epu8(SseRow<16>::load(row),
                                                 _mm_set1_epi8(1)));
        } else if (assoc_ == 8) {
            SseRow<8>::store(row, _mm_subs_epu8(SseRow<8>::load(row),
                                                _mm_set1_epi8(1)));
        } else
#endif
        {
            for (unsigned w = 0; w < assoc_; ++w)
                row[w] = static_cast<uint8_t>(row[w] - (row[w] > 0));
        }
    }
    row[way] = control.protectedValue();
    const uint64_t bit = uint64_t{1} << way;
    reused_[set] = reused ? reused_[set] | bit : reused_[set] & ~bit;
    control.endAccess();
}

inline unsigned
SoaCacheModel::treePositionOf(uint64_t word, unsigned way) const
{
    // Gather the fixed path bits for this leaf and flip the
    // left-child ones (packedPosition without the loop-carried walk).
    // The switch unrolls the gather: the shifts are independent, so
    // they issue in parallel instead of a loop-carried OR chain.
    const uint8_t *nodes = &pathNodes_[way * depth_];
    uint64_t x = 0;
    switch (depth_) {
      case 6:
        x |= ((word >> nodes[5]) & 1) << 5;
        [[fallthrough]];
      case 5:
        x |= ((word >> nodes[4]) & 1) << 4;
        [[fallthrough]];
      case 4:
        x |= ((word >> nodes[3]) & 1) << 3;
        [[fallthrough]];
      case 3:
        x |= ((word >> nodes[2]) & 1) << 2;
        [[fallthrough]];
      case 2:
        x |= ((word >> nodes[1]) & 1) << 1;
        [[fallthrough]];
      default:
        x |= (word >> nodes[0]) & 1;
    }
    return static_cast<unsigned>(x) ^ parityXor_[way];
}

inline unsigned
SoaCacheModel::maskedVictim(uint64_t set, uint64_t base,
                            uint64_t mask) const
{
    // Positions are a permutation, so the maximum is unique.
    unsigned best = 0;
    unsigned best_pos = 0;
    for (uint64_t m = mask; m != 0; m &= m - 1) {
        const auto w = static_cast<unsigned>(countTrailingZeros(m));
        const unsigned p = family_ == Family::Recency
                               ? pos_[base + w]
                               : treePositionOf(tree_[set], w);
        if (p >= best_pos) {
            best = w;
            best_pos = p;
        }
    }
    return best;
}

template <bool Batched>
inline SoaCacheModel::Step
SoaCacheModel::accessImpl(uint64_t set, uint64_t tag, AccessType type,
                          unsigned domain, uint64_t mask)
{
    GIPPR_DCHECK(set < sets_);
    GIPPR_DCHECK(mask != 0 && (mask & ~wayMask_) == 0);
    GIPPR_DCHECK(mask == wayMask_ || ordered_);
    GIPPR_DCHECK(!duel_ || domain < duels_.size());
    const bool demand = type != AccessType::Writeback;
    const uint64_t base = set * assoc_;
    const uint64_t valid = valid_[set];

    if constexpr (!Batched) {
        ++counters_.accesses;
        counters_.demandAccesses += demand;
    }

    Step step;
    const int hit_way = findWay(base, tag, valid);
    if (hit_way >= 0) {
        const unsigned way = static_cast<unsigned>(hit_way);
        ++counters_.hits;
        step.hit = true;
        step.way = way;
        if (type != AccessType::Load)
            dirty_[set] |= uint64_t{1} << way;
        if (demand) {
            // Promotion (writeback hits never touch recency state).
            switch (family_) {
              case Family::Recency: {
                uint8_t *pos = &pos_[base];
                moveTo(pos, way, promo_[0][pos[way]]);
                break;
              }
              case Family::Plru:
                // Promote-to-MRU == setPosition(way, 0).
                tree_[set] = (tree_[set] & ~clearMask_[way]) |
                             deposit_[way * assoc_];
                break;
              case Family::TreeIpv: {
                const unsigned v = ipvIndexFor(domain, set);
                const unsigned i = treePositionOf(tree_[set], way);
                tree_[set] =
                    (tree_[set] & ~clearMask_[way]) |
                    promoDeposit_[(v * assoc_ + way) * assoc_ + i];
                break;
              }
              case Family::Rrip: {
                uint8_t &r = rrpv_[base + way];
                r = rrpvPromo_[r];
                break;
              }
              case Family::Pdp:
                pdpTouch(set, tag, way, true);
                break;
            }
        }
        return step;
    }

    // Miss.
    counters_.demandMisses += demand;
    if (duel_ && demand)
        recordDuelMiss(domain, set);

    // Fill: first invalid way of the mask in way order, else the
    // policy victim within the mask.
    const uint64_t free = ~valid & mask;
    unsigned way = 0;
    if (free != 0) {
        way = static_cast<unsigned>(countTrailingZeros(free));
    } else {
        if (mask != wayMask_) {
            way = maskedVictim(set, base, mask);
        } else {
            switch (family_) {
              case Family::Recency:
                way = recencyVictim(&pos_[base]);
                break;
              case Family::Plru:
              case Family::TreeIpv:
                way = victimLut_ != nullptr
                          ? victimLut_[tree_[set]]
                          : packedFindPlru(tree_[set], assoc_);
                break;
              case Family::Rrip:
                way = rripVictim(&rrpv_[base]);
                break;
              case Family::Pdp:
                way = pdpVictim(set);
                break;
            }
        }
        ++counters_.evictions;
        step.evicted = true;
        step.evictedTag = tags_[base + way];
        step.evictedDirty = (dirty_[set] >> way) & 1;
        counters_.writebacks += step.evictedDirty;
    }

    tags_[base + way] = tag;
    sig_[base + way] = static_cast<uint8_t>(tag);
    valid_[set] = valid | (uint64_t{1} << way);
    if (type != AccessType::Load)
        dirty_[set] |= uint64_t{1} << way;
    else
        dirty_[set] &= ~(uint64_t{1} << way);
    step.way = way;

    // Insertion.
    switch (family_) {
      case Family::Recency: {
        // GiplrPolicy::onInsert: normalize through the LRU position,
        // then move to V[k] (identical to LruPolicy's direct
        // moveTo(way, 0) when the vector is all-zero).
        uint8_t *pos = &pos_[base];
        if constexpr (Batched) {
            // Removing the way from its position and reinserting it
            // at V[k] is one moveTo: composing the two shifts leaves
            // every other way's position unchanged outside
            // [min(from,k), max(from,k)], and on evictions the
            // normalize step is a no-op outright (the victim already
            // sits at the LRU position).
            moveTo(pos, way, insert_[0]);
        } else {
            moveTo(pos, way, assoc_ - 1);
            moveTo(pos, way, insert_[0]);
        }
        break;
      }
      case Family::Plru:
        tree_[set] = (tree_[set] & ~clearMask_[way]) |
                     deposit_[way * assoc_];
        break;
      case Family::TreeIpv: {
        const unsigned v = ipvIndexFor(domain, set);
        tree_[set] = (tree_[set] & ~clearMask_[way]) |
                     insertDeposit_[v * assoc_ + way];
        break;
      }
      case Family::Rrip:
        rrpv_[base + way] = rripInsertion(set);
        break;
      case Family::Pdp:
        pdpTouch(set, tag, way, false);
        break;
    }
    return step;
}

#if GIPPR_BATCH_KERNELS
__attribute__((target("bmi2"))) inline SoaCacheModel::Step
SoaCacheModel::accessResolved16(uint64_t set, uint64_t tag,
                                AccessType type, unsigned sig_match)
{
    // The hit/miss outcome is genome-private and effectively random,
    // so the generic path eats a mispredict on most accesses; here it
    // is turned into data flow instead: the victim is computed
    // unconditionally, the fill stores always run, and the
    // replacement update selects between promotion, insertion and
    // identity deposits.
    GIPPR_DCHECK(set < sets_ && assoc_ == 16);
    const bool demand = type != AccessType::Writeback;
    const bool is_store = type != AccessType::Load;
    const uint64_t base = set * 16;
    const uint64_t valid = valid_[set];

    // Resolve the first candidate with flag arithmetic (tzcnt of an
    // empty mask is steered to a sentinel lane); genuine signature
    // collisions are rare enough that their verify loop stays a cold
    // branch.
    const unsigned cand = sig_match & static_cast<unsigned>(valid);
    unsigned hw =
        static_cast<unsigned>(countTrailingZeros(cand | 0x10000u)) &
        15u;
    bool hit = cand != 0 && tags_[base + hw] == tag;
    if (const unsigned rest = cand & (cand - 1);
        __builtin_expect(rest != 0 && !hit, 0)) {
        for (unsigned c = rest; c != 0; c &= c - 1) {
            const unsigned w =
                static_cast<unsigned>(countTrailingZeros(c));
            if (tags_[base + w] == tag) {
                hw = w;
                hit = true;
                break;
            }
        }
    }

    // Victim computed unconditionally (hits simply ignore it): the
    // row it reads is already resident for the update below.  Only
    // cold-set fills during warmup take the free-way branch.
    unsigned fill = family_ == Family::Recency
                        ? recencyVictimRow<16>(&pos_[base])
                        : victimLut_[tree_[set]];
    const uint64_t free = ~valid & wayMask_;
    const bool full = free == 0;
    if (__builtin_expect(!full, 0))
        fill = static_cast<unsigned>(countTrailingZeros(free));
    const unsigned way = hit ? hw : fill;

    const uint64_t dirty = dirty_[set];
    const bool evict = !hit & full;
    const bool evicted_dirty = evict & ((dirty >> fill) & 1);
    const uint64_t evicted_tag = tags_[base + fill];

    // Outcome counters (hits, demandMisses, evictions, writebacks)
    // are accumulated in registers by the chunk loop from the
    // returned Step and credited via addOutcomeCounters(): four
    // read-modify-writes per access are pure overhead in a loop that
    // already returns the outcome.

    // Never taken for non-duel models (duel_ is fixed per model).
    if (duel_ && demand && !hit)
        recordDuelMiss(0, set);

    // Fill stores run unconditionally: on a hit they rewrite the
    // values already present (tags_[base + way] == tag, the valid bit
    // is set), so the stored state is unchanged.
    const uint64_t bit = uint64_t{1} << way;
    tags_[base + way] = tag;
    sig_[base + way] = static_cast<uint8_t>(tag);
    valid_[set] = valid | bit;
    const uint64_t set_bit = is_store ? bit : 0;
    const uint64_t clear_bit = (!hit & !is_store) ? bit : 0;
    dirty_[set] = (dirty & ~clear_bit) | set_bit;

    // Replacement update as selects: promotion deposit on demand
    // hits, identity on writeback hits, insertion deposit on misses.
    switch (family_) {
      case Family::Recency: {
        uint8_t *pos = &pos_[base];
        const unsigned from = pos[way];
        const unsigned to =
            hit ? (demand ? promo_[0][from] : from) : insert_[0];
        moveToRow<16>(pos, way, to);
        break;
      }
      case Family::Plru: {
        const uint64_t t = tree_[set];
        const uint64_t cm = clearMask_[way];
        // Plru promotion and insertion are the same deposit
        // (promote-to-MRU), so only writeback hits need identity.
        const uint64_t dep =
            hit && !demand ? (t & cm) : deposit_[way * 16];
        tree_[set] = (t & ~cm) | dep;
        break;
      }
      case Family::TreeIpv: {
        const unsigned v = ipvIndexFor(0, set);
        const uint64_t t = tree_[set];
        const uint64_t cm = clearMask_[way];
        const uint64_t promo_dep =
            fusedPromo_[((v * 16 + way) << 4) + _pext_u64(t, cm)];
        const uint64_t ins_dep = insertDeposit_[v * 16 + way];
        const uint64_t dep =
            hit ? (demand ? promo_dep : (t & cm)) : ins_dep;
        tree_[set] = (t & ~cm) | dep;
        break;
      }
      case Family::Rrip:
      case Family::Pdp:
        break; // never paired (pairable())
    }

    Step step;
    step.hit = hit;
    step.way = way;
    step.evicted = evict;
    step.evictedDirty = evicted_dirty;
    step.evictedTag = evict ? evicted_tag : 0;
    return step;
}

__attribute__((target("avx2,bmi2"))) inline void
SoaCacheModel::accessBatched32(SoaCacheModel &a, SoaCacheModel &b,
                               uint64_t set, uint64_t tag,
                               AccessType type, Step &step_a,
                               Step &step_b)
{
    GIPPR_DCHECK(a.assoc_ == 16 && b.assoc_ == 16);
    GIPPR_DCHECK(a.sets_ == b.sets_);
    // One 256-bit compare scans both genomes' signature rows: lane 0
    // (bits 0..15 of the movemask) is a's row, lane 1 is b's.
    const uint64_t base = set * 16;
    const __m256i rows = _mm256_set_m128i(
        _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(&b.sig_[base])),
        _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(&a.sig_[base])));
    const unsigned match =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(
            rows, _mm256_set1_epi8(static_cast<char>(tag)))));
    // The tails are independent dependency chains; back-to-back calls
    // overlap in the out-of-order window.
    step_a = a.accessResolved16(set, tag, type, match & 0xffffu);
    step_b = b.accessResolved16(set, tag, type, match >> 16);
}
#endif

inline SoaCacheModel::Step
SoaCacheModel::access(uint64_t set, uint64_t tag, AccessType type)
{
    return accessImpl<false>(set, tag, type, 0, wayMask_);
}

inline SoaCacheModel::Step
SoaCacheModel::access(uint64_t set, uint64_t tag, AccessType type,
                      unsigned domain, uint64_t mask)
{
    // DRRIP keeps one duel whatever the domain (RripPolicy's).
    return accessImpl<false>(set, tag, type,
                             family_ == Family::Rrip ? 0 : domain, mask);
}

inline SoaCacheModel::Step
SoaCacheModel::accessAddr(uint64_t byte_addr, AccessType type)
{
    return access(setIndex(byte_addr), tagOf(byte_addr), type);
}

/** Fold one access's outcome @p st into @p bank; @p demand marks a
 *  demand (non-writeback) access. */
GIPPR_HOT inline void
countStep(CounterBank &bank, const SoaCacheModel::Step &st, bool demand)
{
    ++bank.accesses;
    bank.demandAccesses += demand;
    if (st.hit) {
        ++bank.hits;
        return;
    }
    ++bank.misses;
    bank.demandMisses += demand;
    bank.evictions += st.evicted;
    bank.writebacks += st.evictedDirty;
}

} // namespace gippr::fastpath

#endif // GIPPR_SIM_FASTPATH_SOA_CACHE_HH_
