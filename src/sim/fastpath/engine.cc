/**
 * @file
 * Replay engine implementations.
 */

#include "sim/fastpath/engine.hh"

#include <algorithm>

#include "sim/fastpath/scalar_model.hh"
#include "sim/fastpath/soa_cache.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace gippr::fastpath
{

namespace
{

/** Contiguous-range shard of @p set for @p shards partitions. */
inline size_t
shardOf(uint64_t set, size_t shards, uint64_t sets)
{
    return static_cast<size_t>((set * shards) / sets);
}

/** One decoded trace record (the work shared by every genome). */
struct DecodedAccess
{
    uint64_t tag;
    uint32_t set;
    AccessType type;
};

/**
 * Records decoded per chunk.  The chunk length sets the batch
 * kernel's memory traffic: each genome's packed arrays are re-read
 * from the outer cache levels once per chunk, so traffic scales as
 * models * model_bytes / chunk while the decoded buffer itself
 * streams sequentially (prefetch-friendly).  64K accesses (1MB of
 * DecodedAccess) keeps one genome's model plus the buffer stream
 * resident while that genome replays the chunk, and shrinks the
 * all-genomes re-stream cost to noise even for wide populations.
 */
constexpr size_t kBatchChunk = 128 * 1024;
/** Lookahead distance for prefetching a genome's set rows. */
constexpr size_t kBatchPrefetch = 8;
/**
 * Lookahead for the paired kernel.  A paired iteration retires about
 * twice the work of a single-model one and prefetches both models'
 * rows (~10 lines per step), so half the distance covers the same
 * latency with half the prefetch spray.
 */
constexpr size_t kPairPrefetch = 4;
/**
 * Target resident footprint of one (genome, set-range) pass.  The
 * random set sequence makes every access pull its rows from wherever
 * the model lives; bucketing each chunk by contiguous set range
 * shrinks that working slice to roughly this budget, so the rows land
 * (and stay) in L1 while the slice replays.  ~24KB leaves room for
 * the decoded buffer stream and the shared tree tables beside it.
 */
constexpr size_t kBatchL1Budget = 24 * 1024;

/**
 * Set-range buckets that keep one pass's slice near the budget.
 * @p lanes is the number of genomes a pass touches at once: the
 * paired kernel walks two models' slices simultaneously, so its
 * resident footprint doubles and the ranges must shrink to match.
 */
size_t
localityBuckets(uint64_t sets, unsigned assoc, unsigned lanes)
{
    // Per set: assoc tag words + assoc signature/position bytes +
    // valid/dirty/tree words (upper bound across families).
    const uint64_t bytes = lanes * sets * (assoc * 10ull + 24);
    // Each lane also keeps ~2KB of per-model tables resident (the
    // fused promotion LUT for TreeIpv, recency promotion rows) that
    // bucketing cannot shrink; budget the set slices around them.
    const uint64_t budget = std::max<uint64_t>(
        kBatchL1Budget - lanes * 2048ull, 8 * 1024);
    const uint64_t buckets = (bytes + budget - 1) / budget;
    return static_cast<size_t>(
        std::clamp<uint64_t>(buckets, 1, std::min<uint64_t>(sets, 256)));
}

#if GIPPR_BATCH_KERNELS
/**
 * Chunk loop over the paired AVX2 kernel: one 256-bit signature scan
 * resolves each decoded access against two genomes' models at once,
 * so the decoded buffer streams through the core once per pair
 * (instead of once per genome) and the two models' hit/victim
 * dependency chains overlap across the shared scan.  Compiled with
 * the avx2+bmi2 target so accessBatched32 and both branch-free tails
 * inline; only dispatched when the CPU supports both.
 */
__attribute__((target("avx2,bmi2"))) void
runChunk32(SoaCacheModel &ma, SoaCacheModel &mb, const DecodedAccess *a,
           size_t n)
{
    const size_t steady = n > kPairPrefetch ? n - kPairPrefetch : 0;
    uint64_t hits_a = 0, dmiss_a = 0, evic_a = 0, wb_a = 0;
    uint64_t hits_b = 0, dmiss_b = 0, evic_b = 0, wb_b = 0;
    SoaCacheModel::Step sa, sb;
    for (size_t k = 0; k < steady; ++k) {
        ma.prefetchSet(a[k + kPairPrefetch].set);
        mb.prefetchSet(a[k + kPairPrefetch].set);
        SoaCacheModel::accessBatched32(ma, mb, a[k].set, a[k].tag,
                                       a[k].type, sa, sb);
        const uint64_t demand = a[k].type != AccessType::Writeback;
        hits_a += sa.hit;
        dmiss_a += demand & !sa.hit;
        evic_a += sa.evicted;
        wb_a += sa.evictedDirty;
        hits_b += sb.hit;
        dmiss_b += demand & !sb.hit;
        evic_b += sb.evicted;
        wb_b += sb.evictedDirty;
    }
    for (size_t k = steady; k < n; ++k) {
        SoaCacheModel::accessBatched32(ma, mb, a[k].set, a[k].tag,
                                       a[k].type, sa, sb);
        const uint64_t demand = a[k].type != AccessType::Writeback;
        hits_a += sa.hit;
        dmiss_a += demand & !sa.hit;
        evic_a += sa.evicted;
        wb_a += sa.evictedDirty;
        hits_b += sb.hit;
        dmiss_b += demand & !sb.hit;
        evic_b += sb.evicted;
        wb_b += sb.evictedDirty;
    }
    ma.addOutcomeCounters(hits_a, dmiss_a, evic_a, wb_a);
    mb.addOutcomeCounters(hits_b, dmiss_b, evic_b, wb_b);
}

/**
 * Four-model variant: two paired scans per decoded record, so the
 * chunk buffer streams through the core once per quad.  The scans
 * and all four tails are independent chains; the extra ILP rides the
 * same buffer read.
 */
__attribute__((target("avx2,bmi2"))) void
runChunk32Quad(SoaCacheModel &ma, SoaCacheModel &mb, SoaCacheModel &mc,
               SoaCacheModel &md, const DecodedAccess *a, size_t n)
{
    uint64_t hits_a = 0, dmiss_a = 0, evic_a = 0, wb_a = 0;
    uint64_t hits_b = 0, dmiss_b = 0, evic_b = 0, wb_b = 0;
    uint64_t hits_c = 0, dmiss_c = 0, evic_c = 0, wb_c = 0;
    uint64_t hits_d = 0, dmiss_d = 0, evic_d = 0, wb_d = 0;
    SoaCacheModel::Step sa, sb, sc, sd;
    for (size_t k = 0; k < n; ++k) {
        SoaCacheModel::accessBatched32(ma, mb, a[k].set, a[k].tag,
                                       a[k].type, sa, sb);
        SoaCacheModel::accessBatched32(mc, md, a[k].set, a[k].tag,
                                       a[k].type, sc, sd);
        const uint64_t demand = a[k].type != AccessType::Writeback;
        hits_a += sa.hit;
        dmiss_a += demand & !sa.hit;
        evic_a += sa.evicted;
        wb_a += sa.evictedDirty;
        hits_b += sb.hit;
        dmiss_b += demand & !sb.hit;
        evic_b += sb.evicted;
        wb_b += sb.evictedDirty;
        hits_c += sc.hit;
        dmiss_c += demand & !sc.hit;
        evic_c += sc.evicted;
        wb_c += sc.evictedDirty;
        hits_d += sd.hit;
        dmiss_d += demand & !sd.hit;
        evic_d += sd.evicted;
        wb_d += sd.evictedDirty;
    }
    ma.addOutcomeCounters(hits_a, dmiss_a, evic_a, wb_a);
    mb.addOutcomeCounters(hits_b, dmiss_b, evic_b, wb_b);
    mc.addOutcomeCounters(hits_c, dmiss_c, evic_c, wb_c);
    md.addOutcomeCounters(hits_d, dmiss_d, evic_d, wb_d);
}
#endif

/**
 * Stream @p trace once and apply it to every model in @p models:
 * each chunk is decoded a single time and then replayed genome-major,
 * with the next few set rows prefetched ahead of the access cursor.
 *
 * On 16-way geometries with the Batch32 kernel active, each group's
 * pairable models (the recency and tree families) replay in genome
 * quads, then pairs, through the paired AVX2 scan; the odd leftover,
 * the RRIP and PDP models, and every model otherwise, run the generic
 * accessBatched() loop.
 *
 * Models whose sets are independent replay each chunk bucket-ordered:
 * a stable counting sort groups the decoded accesses by contiguous set
 * range, so one (genome, range) pass works in an L1-resident slice of
 * the model.  Accesses to different sets commute for those policies
 * (the engine's set sharding already relies on this), and the sort is
 * stable per set, so the per-set access sequences — and therefore the
 * final state and every counter — are bit-identical to trace order.
 * Models that couple their sets (SoaCacheModel::couplesSets: a duel,
 * BRRIP's throttle RNG, PDP's sampler) keep trace order.
 *
 * Chunks never straddle @p warmup, so every model snapshots its
 * counters at exactly the boundary the per-spec replay() uses.
 */
void
replayBatch(std::vector<SoaCacheModel> &models, const Trace &trace,
            size_t warmup)
{
    const SoaCacheModel &geo = models.front();
    const uint64_t sets = geo.sets();
    const size_t chunk = std::min<size_t>(kBatchChunk, trace.size());
    bool any_ordered = false;
    for (const SoaCacheModel &m : models)
        any_ordered |= !m.couplesSets();

    // Models split by chunk access order: independent-set models
    // replay the bucket-sorted stream, set-coupled models keep trace
    // order.  The paired kernel pairs adjacent pairable models inside
    // one group (they lead it) so both lanes of a pass consume the
    // identical access stream.
    std::vector<SoaCacheModel *> groups[2];
    for (SoaCacheModel &m : models)
        groups[m.couplesSets() ? 1 : 0].push_back(&m);
    size_t pairable[2];
    for (int g = 0; g < 2; ++g)
        pairable[g] = static_cast<size_t>(
            std::stable_partition(
                groups[g].begin(), groups[g].end(),
                [](const SoaCacheModel *m) { return m->pairable(); }) -
            groups[g].begin());
    const bool batch32 =
        geo.assoc() == 16 && activeReplayKernel() == ReplayKernel::Batch32;
    const bool pairing = batch32 && pairable[0] >= 2;
    const bool quads = pairing && pairable[0] >= 4;
    const size_t buckets = localityBuckets(sets, geo.assoc(),
                                           quads ? 4 : pairing ? 2 : 1);
    std::vector<DecodedAccess> buf(chunk);
    std::vector<DecodedAccess> ordered(
        buckets > 1 && any_ordered ? chunk : 0);
    std::vector<uint32_t> cursor(buckets + 1);

    bool snapped = warmup == 0;
    size_t i = 0;
    while (i < trace.size()) {
        size_t end = std::min(trace.size(), i + kBatchChunk);
        if (!snapped) {
            if (i >= warmup) {
                for (SoaCacheModel &m : models)
                    m.markWarmup();
                snapped = true;
            } else {
                end = std::min(end, warmup);
            }
        }
        size_t n = 0;
        uint64_t demand = 0;
        for (size_t j = i; j < end; ++j) {
            const MemRecord &r = trace[j];
            const uint64_t set = geo.setIndex(r.addr);
            const AccessType type = r.type;
            demand += type != AccessType::Writeback;
            buf[n++] = {geo.tagOf(r.addr),
                        static_cast<uint32_t>(set), type};
        }

        // Stable counting sort of the chunk by set-range bucket.
        const DecodedAccess *ord = buf.data();
        if (!ordered.empty() && n > 0) {
            std::fill(cursor.begin(), cursor.end(), 0);
            for (size_t k = 0; k < n; ++k)
                ++cursor[shardOf(buf[k].set, buckets, sets) + 1];
            for (size_t b = 1; b <= buckets; ++b)
                cursor[b] += cursor[b - 1];
            for (size_t k = 0; k < n; ++k)
                ordered[cursor[shardOf(buf[k].set, buckets, sets)]++] =
                    buf[k];
            ord = ordered.data();
        }

        const size_t steady = n > kBatchPrefetch ? n - kBatchPrefetch
                                                 : 0;
        for (int g = 0; g < 2; ++g) {
            const DecodedAccess *a = g == 1 ? buf.data() : ord;
            std::vector<SoaCacheModel *> &grp = groups[g];
            size_t m = 0;
#if GIPPR_BATCH_KERNELS
            if (batch32) {
                for (; m + 3 < pairable[g]; m += 4) {
                    runChunk32Quad(*grp[m], *grp[m + 1], *grp[m + 2],
                                   *grp[m + 3], a, n);
                    for (int q = 0; q < 4; ++q)
                        grp[m + q]->addStreamCounters(n, demand);
                }
                for (; m + 1 < pairable[g]; m += 2) {
                    runChunk32(*grp[m], *grp[m + 1], a, n);
                    grp[m]->addStreamCounters(n, demand);
                    grp[m + 1]->addStreamCounters(n, demand);
                }
            }
#endif
            for (; m < grp.size(); ++m) {
                SoaCacheModel &mm = *grp[m];
                for (size_t k = 0; k < steady; ++k) {
                    mm.prefetchSet(a[k + kBatchPrefetch].set);
                    mm.accessBatched(a[k].set, a[k].tag, a[k].type);
                }
                for (size_t k = steady; k < n; ++k)
                    mm.accessBatched(a[k].set, a[k].tag, a[k].type);
                mm.addStreamCounters(n, demand);
            }
        }
        i = end;
    }
    if (!snapped) {
        for (SoaCacheModel &m : models)
            m.markWarmup();
    }
}

} // namespace

const char *
replayKernelName(ReplayKernel kernel)
{
    return kernel == ReplayKernel::Batch32 ? "batch32" : "scalar";
}

ReplayKernel
activeReplayKernel()
{
#if GIPPR_BATCH_KERNELS
    static const ReplayKernel kernel =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2")
            ? ReplayKernel::Batch32
            : ReplayKernel::Scalar;
    return kernel;
#else
    return ReplayKernel::Scalar;
#endif
}

std::vector<ReplayStats>
ReplayEngine::replayMany(std::span<const ReplaySpec> specs,
                         const CacheConfig &config, const Trace &trace,
                         size_t warmup) const
{
    std::vector<ReplayStats> out;
    out.reserve(specs.size());
    for (const ReplaySpec &spec : specs)
        out.push_back(replay(spec, config, trace, warmup));
    return out;
}

ReplayStats
ScalarReplayEngine::replay(const ReplaySpec &spec,
                           const CacheConfig &config, const Trace &trace,
                           size_t warmup) const
{
    ScalarModel model(spec, config);
    return replayInOrder(model, trace, warmup);
}

FastReplayEngine::FastReplayEngine(unsigned shards)
    : shards_(shards == 0 ? resolveThreads(0) : shards)
{
}

bool
FastReplayEngine::supports(const ReplaySpec &spec,
                           const CacheConfig &config)
{
    return SoaCacheModel::supports(spec, config);
}

ReplayStats
FastReplayEngine::replay(const ReplaySpec &spec,
                         const CacheConfig &config, const Trace &trace,
                         size_t warmup) const
{
    if (!supports(spec, config))
        return fallback_.replay(spec, config, trace, warmup);
    GIPPR_CHECK(warmup <= trace.size());

    const uint64_t sets = config.sets();
    const size_t shards = std::min<uint64_t>(shards_, sets);

    if (shards == 1 || couplesSets(spec)) {
        // One model replays the whole trace in order.  Set-coupled
        // specs always do: a shared tournament, throttle RNG or PDP
        // sampler makes one set's transition depend on every earlier
        // access, exactly like the scalar engine.
        SoaCacheModel model(spec, config);
        return replayInOrder(model, trace, warmup);
    }

    // Independent sets: each shard filter-scans the trace for its
    // contiguous slice of the set space.
    std::vector<ReplayStats> shard_stats(shards);
    parallelFor(shards, static_cast<unsigned>(shards), [&](size_t shard) {
        SoaCacheModel model(spec, config);
        // Snapshot before the shard's first measured record (warmup
        // == 0 needs none: the initial snapshot is already all-zero).
        bool snapped = warmup == 0;
        for (size_t i = 0; i < trace.size(); ++i) {
            const MemRecord &r = trace[i];
            const uint64_t set = model.setIndex(r.addr);
            if (shardOf(set, shards, sets) != shard)
                continue;
            if (!snapped && i >= warmup) {
                model.markWarmup();
                snapped = true;
            }
            model.access(set, model.tagOf(r.addr), r.type);
        }
        if (!snapped)
            model.markWarmup();
        shard_stats[shard] = model.stats();
    });
    ReplayStats out;
    for (const ReplayStats &s : shard_stats) {
        out.measured += s.measured;
        out.total += s.total;
    }
    return out;
}

std::vector<ReplayStats>
FastReplayEngine::replayMany(std::span<const ReplaySpec> specs,
                             const CacheConfig &config,
                             const Trace &trace, size_t warmup) const
{
    GIPPR_CHECK(warmup <= trace.size());
    std::vector<ReplayStats> out(specs.size());

    // Batch everything the packed model covers; unsupported specs
    // fall back to the scalar reference one at a time, so any mix of
    // specs yields the same results as per-spec replay().
    std::vector<size_t> batch;
    batch.reserve(specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
        if (supports(specs[s], config))
            batch.push_back(s);
        else
            out[s] = fallback_.replay(specs[s], config, trace, warmup);
    }
    if (batch.empty())
        return out;

    // A lone batched spec gains nothing from chunk decode + buffer
    // restreaming and would lose to the tuned per-genome loop (the
    // pop-1 regression): delegate so the batched entry point never
    // underperforms replay().
    if (batch.size() == 1) {
        out[batch[0]] = replay(specs[batch[0]], config, trace, warmup);
        return out;
    }

    std::vector<SoaCacheModel> models;
    models.reserve(batch.size());
    for (size_t s : batch)
        models.emplace_back(specs[s], config);
    replayBatch(models, trace, warmup);
    for (size_t m = 0; m < batch.size(); ++m)
        out[batch[m]] = models[m].stats();
    return out;
}

const ReplayEngine &
defaultReplayEngine()
{
    static const FastReplayEngine engine(1);
    return engine;
}

} // namespace gippr::fastpath
