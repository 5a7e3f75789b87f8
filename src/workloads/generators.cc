/**
 * @file
 * Synthetic access generator implementations.
 */

#include "util/check.hh"
#include "workloads/generators.hh"

#include "util/log.hh"

namespace gippr
{

namespace
{

/** Mix a 64-bit value (splitmix-style finalizer). */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace

AccessGenerator::GapSampler::GapSampler(uint32_t mean_gap)
    : extra_(mean_gap <= 1 ? 1.0 : 1.0 / static_cast<double>(mean_gap))
{
}

uint32_t
AccessGenerator::GapSampler::sample(Rng &rng) const
{
    uint64_t g = extra_.sample(rng);
    if (g > 1000)
        g = 1000; // keep gaps bounded for the CPU model
    return static_cast<uint32_t>(1 + g);
}

MemRecord
AccessGenerator::makeRecord(uint64_t block, uint32_t gap, bool write)
{
    MemRecord r;
    r.addr = block * kBlockBytes;
    r.instGap = gap;
    r.type = write ? AccessType::Store : AccessType::Load;
    return r;
}

StreamGenerator::StreamGenerator(const GenParams &params, uint64_t stride,
                                 uint64_t wrap)
    : params_(params), gaps_(params.meanGap), stride_(stride),
      wrap_(wrap)
{
    GIPPR_CHECK(stride_ >= 1);
    GIPPR_CHECK(wrap_ >= 1);
}

MemRecord
StreamGenerator::next(Rng &rng)
{
    uint64_t block = params_.regionBase + cursor_;
    cursor_ = (cursor_ + stride_) % wrap_;
    return makeRecord(block, gaps_.sample(rng),
                      rng.nextBool(params_.writeFrac));
}

LoopGenerator::LoopGenerator(const GenParams &params, uint64_t blocks)
    : params_(params), gaps_(params.meanGap), blocks_(blocks)
{
    GIPPR_CHECK(blocks_ >= 1);
}

MemRecord
LoopGenerator::next(Rng &rng)
{
    uint64_t block = params_.regionBase + cursor_;
    cursor_ = (cursor_ + 1) % blocks_;
    return makeRecord(block, gaps_.sample(rng),
                      rng.nextBool(params_.writeFrac));
}

PointerChaseGenerator::PointerChaseGenerator(const GenParams &params,
                                             uint64_t blocks,
                                             uint64_t seed)
    : params_(params), gaps_(params.meanGap)
{
    GIPPR_CHECK(blocks >= 2);
    GIPPR_CHECK(blocks <= UINT32_MAX);
    // Sattolo's algorithm: a single cycle covering every node, so the
    // chase visits all blocks before repeating (reuse distance ==
    // working-set size, the mcf-like worst case).
    nextNode_.resize(blocks);
    for (uint64_t i = 0; i < blocks; ++i)
        nextNode_[i] = static_cast<uint32_t>(i);
    Rng perm_rng(seed);
    for (uint64_t i = blocks - 1; i >= 1; --i) {
        uint64_t j = perm_rng.nextBounded(i);
        std::swap(nextNode_[i], nextNode_[j]);
    }
}

MemRecord
PointerChaseGenerator::next(Rng &rng)
{
    uint64_t block = params_.regionBase + current_;
    current_ = nextNode_[current_];
    return makeRecord(block, gaps_.sample(rng),
                      rng.nextBool(params_.writeFrac));
}

ZipfGenerator::ZipfGenerator(const GenParams &params, uint64_t blocks,
                             double theta, uint64_t seed)
    : params_(params), gaps_(params.meanGap), sampler_(blocks, theta),
      seed_(seed)
{
}

MemRecord
ZipfGenerator::next(Rng &rng)
{
    uint64_t rank = sampler_.sample(rng);
    // Scatter ranks over the region so popular blocks are not
    // physically adjacent (avoids set-index pathologies).
    uint64_t block =
        params_.regionBase + mix64(rank ^ seed_) % sampler_.n();
    return makeRecord(block, gaps_.sample(rng),
                      rng.nextBool(params_.writeFrac));
}

HotColdGenerator::HotColdGenerator(const GenParams &params,
                                   uint64_t hot_blocks, double hot_frac,
                                   uint64_t cold_wrap)
    : params_(params), gaps_(params.meanGap), hotBlocks_(hot_blocks),
      hotFrac_(hot_frac), coldWrap_(cold_wrap)
{
    GIPPR_CHECK(hotBlocks_ >= 1);
    GIPPR_CHECK(coldWrap_ >= 1);
    GIPPR_CHECK(hotFrac_ >= 0.0 && hotFrac_ <= 1.0);
}

MemRecord
HotColdGenerator::next(Rng &rng)
{
    if (rng.nextBool(hotFrac_)) {
        uint64_t block = params_.regionBase + rng.nextBounded(hotBlocks_);
        return makeRecord(block, gaps_.sample(rng),
                          rng.nextBool(params_.writeFrac));
    }
    uint64_t block = params_.regionBase + hotBlocks_ + coldCursor_;
    coldCursor_ = (coldCursor_ + 1) % coldWrap_;
    return makeRecord(block, gaps_.sample(rng),
                      rng.nextBool(params_.writeFrac));
}

StencilGenerator::StencilGenerator(const GenParams &params,
                                   uint64_t row_blocks, uint64_t rows)
    : params_(params), gaps_(params.meanGap), rowBlocks_(row_blocks),
      rows_(rows)
{
    GIPPR_CHECK(rowBlocks_ >= 1);
    GIPPR_CHECK(rows_ >= 3);
}

MemRecord
StencilGenerator::next(Rng &rng)
{
    // For grid point (r, c) emit north, center, south in successive
    // calls: reuse distance between vertical neighbours is one row.
    uint64_t r = cursor_ / rowBlocks_;
    uint64_t c = cursor_ % rowBlocks_;
    uint64_t row;
    switch (phase_) {
      case 0:
        row = (r + rows_ - 1) % rows_;
        break;
      case 1:
        row = r;
        break;
      default:
        row = (r + 1) % rows_;
        break;
    }
    if (++phase_ == 3) {
        phase_ = 0;
        cursor_ = (cursor_ + 1) % (rowBlocks_ * rows_);
    }
    uint64_t block = params_.regionBase + row * rowBlocks_ + c;
    // The center access writes (Jacobi-style update).
    bool write = phase_ == 2 && rng.nextBool(0.5);
    return makeRecord(block, gaps_.sample(rng), write);
}

SdProfileGenerator::SdProfileGenerator(const GenParams &params,
                                       std::vector<Band> bands,
                                       double new_weight)
    : params_(params), gaps_(params.meanGap), bands_(std::move(bands)),
      newWeight_(new_weight)
{
    GIPPR_CHECK(newWeight_ >= 0.0);
    totalWeight_ = newWeight_;
    uint64_t max_hi = 0;
    for (const Band &b : bands_) {
        GIPPR_CHECK(b.lo <= b.hi);
        GIPPR_CHECK(b.weight >= 0.0);
        totalWeight_ += b.weight;
        max_hi = std::max(max_hi, b.hi);
    }
    GIPPR_CHECK(totalWeight_ > 0.0);
    history_.assign(max_hi + 2, 0);
}

MemRecord
SdProfileGenerator::next(Rng &rng)
{
    double pick = rng.nextDouble() * totalWeight_;
    uint64_t block;
    const Band *chosen = nullptr;
    double acc = newWeight_;
    if (pick >= acc) {
        for (const Band &band : bands_) {
            acc += band.weight;
            if (pick < acc) {
                chosen = &band;
                break;
            }
        }
    }
    if (chosen == nullptr || emitted_ == 0) {
        // Compulsory reference to a brand-new block.
        block = params_.regionBase + lastEmit_.size();
        lastEmit_.push_back(emitted_);
    } else {
        // Re-touch the block emitted `dist` references ago (dist == 1
        // is the immediately preceding reference).  A chosen ring slot
        // may hold a block that was *also* emitted more recently,
        // which would produce a shorter observed distance than the
        // band requests; redraw a few times to keep the realized
        // profile faithful.
        uint64_t max_dist =
            std::min<uint64_t>(emitted_, history_.size() - 1);
        uint64_t lo = std::max<uint64_t>(chosen->lo, 1);
        lo = std::min(lo, max_dist);
        uint64_t hi = std::min(std::max<uint64_t>(chosen->hi, 1),
                               max_dist);
        block = history_[(emitted_ -
                          (lo + rng.nextBounded(hi - lo + 1))) %
                         history_.size()];
        for (int attempt = 0;
             attempt < 8 &&
             emitted_ - lastEmit_[block - params_.regionBase] < lo;
             ++attempt) {
            block = history_[(emitted_ -
                              (lo + rng.nextBounded(hi - lo + 1))) %
                             history_.size()];
        }
        lastEmit_[block - params_.regionBase] = emitted_;
    }
    history_[emitted_ % history_.size()] = block;
    ++emitted_;
    return makeRecord(block, gaps_.sample(rng),
                      rng.nextBool(params_.writeFrac));
}

PhasedGenerator::PhasedGenerator(std::vector<Phase> phases)
    : phases_(std::move(phases))
{
    GIPPR_CHECK(!phases_.empty());
    for (const Phase &p : phases_) {
        GIPPR_CHECK(p.gen != nullptr);
        GIPPR_CHECK(p.length >= 1);
    }
}

MemRecord
PhasedGenerator::next(Rng &rng)
{
    if (emitted_ >= phases_[current_].length) {
        emitted_ = 0;
        current_ = (current_ + 1) % phases_.size();
    }
    ++emitted_;
    return phases_[current_].gen->next(rng);
}

KvCacheGenerator::KvCacheGenerator(const GenParams &params,
                                   std::vector<Tenant> tenants,
                                   uint64_t seed, uint64_t churn_every)
    : params_(params), gaps_(params.meanGap), seed_(seed),
      churnEvery_(churn_every)
{
    GIPPR_CHECK(!tenants.empty());
    double cum = 0.0;
    uint64_t base = params_.regionBase;
    for (const Tenant &t : tenants) {
        GIPPR_CHECK(t.keys >= 1);
        GIPPR_CHECK(t.weight > 0.0);
        tenants_.push_back({ZipfSampler(t.keys, t.theta), base,
                            t.writeFrac});
        cum += t.weight;
        cumWeight_.push_back(cum);
        // Disjoint per-tenant ranges, padded so neighbouring tenants
        // never alias even after the scatter hash's modulo.
        base += t.keys + 4096;
    }
}

MemRecord
KvCacheGenerator::next(Rng &rng)
{
    double pick = rng.nextDouble() * cumWeight_.back();
    size_t t = 0;
    while (t + 1 < tenants_.size() && pick >= cumWeight_[t])
        ++t;
    const TenantState &ts = tenants_[t];
    uint64_t rank = ts.sampler.sample(rng);
    // Epoch-salted scatter: with churn enabled each epoch maps ranks
    // to a fresh block set, so the previous epoch's keys go cold.
    uint64_t epoch = churnEvery_ ? emitted_ / churnEvery_ : 0;
    ++emitted_;
    uint64_t block =
        ts.base + mix64(rank ^ seed_ ^
                        (epoch * 0x9e3779b97f4a7c15ULL)) %
                      ts.sampler.n();
    return makeRecord(block, gaps_.sample(rng),
                      rng.nextBool(ts.writeFrac));
}

MixGenerator::MixGenerator(std::vector<Component> components)
    : components_(std::move(components))
{
    GIPPR_CHECK(!components_.empty());
    totalWeight_ = 0.0;
    for (const Component &c : components_) {
        GIPPR_CHECK(c.gen != nullptr);
        GIPPR_CHECK(c.weight > 0.0);
        totalWeight_ += c.weight;
    }
}

MemRecord
MixGenerator::next(Rng &rng)
{
    double pick = rng.nextDouble() * totalWeight_;
    double acc = 0.0;
    for (Component &c : components_) {
        acc += c.weight;
        if (pick < acc)
            return c.gen->next(rng);
    }
    return components_.back().gen->next(rng);
}

Trace
generateTrace(AccessGenerator &gen, uint64_t accesses, Rng &rng)
{
    Trace trace;
    trace.reserve(accesses);
    for (uint64_t i = 0; i < accesses; ++i)
        trace.append(gen.next(rng));
    return trace;
}

} // namespace gippr
