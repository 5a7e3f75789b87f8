/**
 * @file
 * Structure-of-arrays cache model implementation.
 */

#include "sim/fastpath/soa_cache.hh"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "util/bitops.hh"
#include "util/check.hh"

namespace gippr::fastpath
{

namespace
{

/**
 * Promotion/insertion vectors a spec's policy family applies: Lru and
 * Lip synthesize their fixed vectors, Plru needs none, the IPV
 * families use the spec's own.
 */
std::vector<Ipv>
effectiveIpvs(const ReplaySpec &spec, unsigned ways)
{
    switch (spec.kind) {
      case FastPolicyKind::Lru:
        return {Ipv::lru(ways)};
      case FastPolicyKind::Lip:
        return {Ipv::lruInsertion(ways)};
      case FastPolicyKind::Plru: // promote-to-MRU needs no vector
      case FastPolicyKind::Rrip: // the RRPV tables are built apart
      case FastPolicyKind::Pdp:
        return {};
      case FastPolicyKind::Giplr:
      case FastPolicyKind::Gippr:
      case FastPolicyKind::Dgippr:
        return spec.ipvs;
    }
    return {};
}

} // namespace

std::shared_ptr<const TreeTables>
TreeTables::forAssoc(unsigned assoc)
{
    GIPPR_CHECK(isPow2(assoc) && assoc >= 2 && assoc <= 64);
    // One slot per depth, kept for the life of the process: the
    // tables depend only on the associativity, and batched replay
    // constructs models by the hundred per generation.
    static std::mutex mu;
    static std::shared_ptr<const TreeTables> cache[7];
    const unsigned depth =
        static_cast<unsigned>(countTrailingZeros(assoc));
    std::lock_guard<std::mutex> lock(mu);
    if (cache[depth])
        return cache[depth];
    auto t = std::make_shared<TreeTables>();
    t->depth = depth;
    t->pathNodes.assign(assoc * depth, 0);
    t->parityXor.assign(assoc, 0);
    t->clearMask.assign(assoc, 0);
    t->deposit.assign(assoc * assoc, 0);
    for (unsigned way = 0; way < assoc; ++way) {
        unsigned q = assoc - 1 + way;
        for (unsigned i = 0; i < depth; ++i) {
            const unsigned par = (q - 1) / 2;
            t->pathNodes[way * depth + i] = static_cast<uint8_t>(par);
            t->clearMask[way] |= uint64_t{1} << par;
            if (q % 2 == 1) // left child: complemented bit
                t->parityXor[way] |= 1u << i;
            q = par;
        }
        for (unsigned x = 0; x < assoc; ++x)
            t->deposit[way * assoc + x] =
                packedSetPosition(0, assoc, way, x) & t->clearMask[way];
    }
    if (assoc <= 16) {
        t->victimLut.assign(uint64_t{1} << (assoc - 1), 0);
        for (uint64_t w = 0; w < t->victimLut.size(); ++w)
            t->victimLut[w] =
                static_cast<uint8_t>(packedFindPlru(w, assoc));
    }
    cache[depth] = t;
    return t;
}

bool
SoaCacheModel::supports(const ReplaySpec &spec, const CacheConfig &config)
{
    const unsigned ways = config.assoc;
    if (ways < 2 || ways > 64)
        return false;
    switch (spec.kind) {
      case FastPolicyKind::Lru:
      case FastPolicyKind::Lip:
        return true;
      case FastPolicyKind::Giplr:
        return spec.ipvs.size() == 1 &&
               spec.ipvs.front().ways() == ways;
      case FastPolicyKind::Plru:
        return isPow2(ways);
      case FastPolicyKind::Gippr:
        return isPow2(ways) && spec.ipvs.size() == 1 &&
               spec.ipvs.front().ways() == ways;
      case FastPolicyKind::Dgippr:
        if (!isPow2(ways) || spec.ipvs.size() < 2 ||
            !isPow2(spec.ipvs.size())) {
            return false;
        }
        for (const Ipv &v : spec.ipvs) {
            if (v.ways() != ways)
                return false;
        }
        return true;
      case FastPolicyKind::Rrip:
        // DRRIP's leader sets need two sets; its PSEL has the default
        // width.
        if (spec.rrpvBits < 1 || spec.rrpvBits > 8 ||
            spec.counterBits != 11)
            return false;
        if (spec.rripMode == RripPolicy::Mode::Dynamic &&
            config.sets() < 2)
            return false;
        if (spec.ipvs.empty())
            return spec.epsilonInv >= 1;
        return spec.ipvs.size() == 1 &&
               spec.rripMode == RripPolicy::Mode::Static &&
               spec.ipvs.front().ways() == (1u << spec.rrpvBits);
      case FastPolicyKind::Pdp:
        return spec.pdp.counterBits >= 2 && spec.pdp.counterBits <= 8 &&
               spec.pdp.initialDp >= 1 && spec.pdp.maxDistance >= 1 &&
               spec.pdp.sampleShift < 64;
    }
    return false;
}

SoaCacheModel::SoaCacheModel(const ReplaySpec &spec,
                             const CacheConfig &config, unsigned domains)
    : sets_(config.sets()), assoc_(config.assoc), decode_(config),
      wayMask_(lowMask(config.assoc))
{
    GIPPR_CHECK(supports(spec, config));
    GIPPR_CHECK(domains >= 1);
    switch (spec.kind) {
      case FastPolicyKind::Lru:
      case FastPolicyKind::Lip:
      case FastPolicyKind::Giplr:
        family_ = Family::Recency;
        break;
      case FastPolicyKind::Plru:
        family_ = Family::Plru;
        break;
      case FastPolicyKind::Gippr:
        family_ = Family::TreeIpv;
        break;
      case FastPolicyKind::Dgippr:
        family_ = Family::TreeIpv;
        duel_ = true;
        break;
      case FastPolicyKind::Rrip:
        family_ = Family::Rrip;
        duel_ = spec.rripMode == RripPolicy::Mode::Dynamic;
        break;
      case FastPolicyKind::Pdp:
        family_ = Family::Pdp;
        break;
    }
    couples_ = fastpath::couplesSets(spec);
    ordered_ = fastpath::keepsRecencyOrder(spec);

    for (const Ipv &v : effectiveIpvs(spec, assoc_)) {
        std::vector<uint8_t> row(assoc_);
        for (unsigned i = 0; i < assoc_; ++i)
            row[i] = static_cast<uint8_t>(v.promotion(i));
        promo_.push_back(std::move(row));
        insert_.push_back(static_cast<uint8_t>(v.insertion()));
    }

    tags_.assign(sets_ * assoc_, 0);
    sig_.assign(sets_ * assoc_, 0);
    valid_.assign(sets_, 0);
    dirty_.assign(sets_, 0);
    if (family_ == Family::Recency) {
        // Identity layout, matching RecencyStack's constructor.
        pos_.resize(sets_ * assoc_);
        for (uint64_t s = 0; s < sets_; ++s)
            for (unsigned w = 0; w < assoc_; ++w)
                pos_[s * assoc_ + w] = static_cast<uint8_t>(w);
    } else if (family_ == Family::Rrip) {
        // Every line starts "distant", as in RripPolicy.
        rrpvMax_ = static_cast<uint8_t>((1u << spec.rrpvBits) - 1);
        rrpv_.assign(sets_ * assoc_, rrpvMax_);
        rrpvPromo_.assign(rrpvMax_ + 1u, 0);
        rrpvInsert_ = static_cast<uint8_t>(rrpvMax_ - 1);
        if (!spec.ipvs.empty()) {
            const Ipv &v = spec.ipvs.front();
            for (unsigned r = 0; r <= rrpvMax_; ++r)
                rrpvPromo_[r] = static_cast<uint8_t>(v.promotion(r));
            rrpvInsert_ = static_cast<uint8_t>(v.insertion());
        }
        rripMode_ = spec.rripMode;
        epsilonInv_ = spec.epsilonInv;
        rng_ = Rng(spec.seed);
    } else if (family_ == Family::Pdp) {
        prot_.assign(sets_ * assoc_, 0);
        reused_.assign(sets_, 0);
        pdpSets_.assign(sets_, PdpSet{});
        pdp_.emplace(spec.pdp);
    } else {
        tree_.assign(sets_, 0);
        // Per-way path tables, shared process-wide per geometry:
        // every tree update/read in the access path reduces to
        // mask-and-deposit through these (see TreeTables).
        tables_ = TreeTables::forAssoc(assoc_);
        depth_ = tables_->depth;
        pathNodes_ = tables_->pathNodes.data();
        parityXor_ = tables_->parityXor.data();
        clearMask_ = tables_->clearMask.data();
        deposit_ = tables_->deposit.data();
        victimLut_ = tables_->victimLut.empty()
                         ? nullptr
                         : tables_->victimLut.data();
        if (family_ == Family::TreeIpv) {
            const size_t vecs = promo_.size();
            promoDeposit_.assign(vecs * assoc_ * assoc_, 0);
            insertDeposit_.assign(vecs * assoc_, 0);
            fusedPromo_.assign((vecs * assoc_) << depth_, 0);
            for (size_t v = 0; v < vecs; ++v) {
                for (unsigned way = 0; way < assoc_; ++way) {
                    for (unsigned i = 0; i < assoc_; ++i)
                        promoDeposit_[(v * assoc_ + way) * assoc_ +
                                      i] =
                            deposit_[way * assoc_ + promo_[v][i]];
                    insertDeposit_[v * assoc_ + way] =
                        deposit_[way * assoc_ + insert_[v]];
                    // Fused batched-hit LUT: enumerate the way's path
                    // bits in ascending node order (pext extraction
                    // order), recover the stack position each pattern
                    // encodes, and store the deposit it promotes to.
                    std::vector<uint8_t> nodes(
                        &pathNodes_[way * depth_],
                        &pathNodes_[way * depth_] + depth_);
                    std::sort(nodes.begin(), nodes.end());
                    for (unsigned pat = 0; pat < (1u << depth_);
                         ++pat) {
                        uint64_t word = 0;
                        for (unsigned b = 0; b < depth_; ++b)
                            word |= uint64_t{(pat >> b) & 1u}
                                    << nodes[b];
                        const unsigned pos =
                            packedPosition(word, assoc_, way);
                        fusedPromo_[((v * assoc_ + way) << depth_) +
                                    pat] =
                            deposit_[way * assoc_ + promo_[v][pos]];
                    }
                }
            }
        }
    }
    if (duel_) {
        // DRRIP duels SRRIP against BRRIP in one domain, with
        // RripPolicy's default PSEL width.
        const bool rrip = family_ == Family::Rrip;
        const auto nvec =
            rrip ? 2u : static_cast<unsigned>(promo_.size());
        if (rrip)
            domains = 1;
        owners_ = LeaderSets(sets_, nvec,
                             clampLeaders(sets_, nvec, spec.leaders))
                      .domainOwners(domains);
        duels_.reserve(domains);
        for (unsigned d = 0; d < domains; ++d) {
            TournamentSelector selector =
                rrip ? TournamentSelector(nvec)
                     : TournamentSelector(nvec, spec.counterBits);
            const unsigned winner = selector.winner();
            duels_.push_back({std::move(selector), winner,
                              std::vector<uint64_t>(nvec, 0)});
        }
    }
}

ReplayStats
SoaCacheModel::stats() const
{
    ReplayStats s;
    s.total = counters_;
    s.total.misses = counters_.accesses - counters_.hits;
    s.measured = counters_ - warmupBase_;
    s.measured.misses = s.measured.accesses - s.measured.hits;
    duelStats(0, s);
    return s;
}

void
SoaCacheModel::duelStats(unsigned domain, ReplayStats &out) const
{
    if (!duel_)
        return;
    if (family_ == Family::Rrip)
        domain = 0;
    GIPPR_CHECK(domain < duels_.size());
    const DuelDomain &d = duels_[domain];
    out.finalWinner = d.selector.winner();
    out.duelCounters = d.selector.counterValues();
    if (family_ != Family::Rrip)
        out.leaderMisses = d.leaderMisses;
}

std::vector<unsigned>
SoaCacheModel::lineState(uint64_t set) const
{
    std::vector<unsigned> out(assoc_);
    for (unsigned w = 0; w < assoc_; ++w) {
        const uint64_t line = set * assoc_ + w;
        switch (family_) {
          case Family::Recency:
            out[w] = pos_[line];
            break;
          case Family::Plru:
          case Family::TreeIpv:
            out[w] = packedPosition(tree_[set], assoc_, w);
            break;
          case Family::Rrip:
            out[w] = rrpv_[line];
            break;
          case Family::Pdp:
            out[w] = prot_[line] + (((reused_[set] >> w) & 1) << 8);
            break;
        }
    }
    return out;
}

bool
SoaCacheModel::validAt(uint64_t set, unsigned way) const
{
    return (valid_[set] >> way) & 1;
}

bool
SoaCacheModel::dirtyAt(uint64_t set, unsigned way) const
{
    return (dirty_[set] >> way) & 1;
}

std::string
SoaCacheModel::dumpSet(uint64_t set) const
{
    std::ostringstream os;
    os << "set " << set << " state [";
    for (unsigned p : lineState(set))
        os << ' ' << p;
    os << " ] valid 0x" << std::hex << valid_[set] << " dirty 0x"
       << dirty_[set] << std::dec;
    if (family_ == Family::Plru || family_ == Family::TreeIpv)
        os << " tree 0x" << std::hex << tree_[set] << std::dec;
    if (family_ == Family::Pdp)
        os << " tick " << pdpSets_[set].tick << " count "
           << pdpSets_[set].accessCount << " dp " << pdp_->dp();
    if (duel_) {
        os << " owner " << int{owners_[set]} << " winner "
           << duels_[0].winner;
    }
    os << " tags [";
    for (unsigned w = 0; w < assoc_; ++w)
        os << ' ' << std::hex << tags_[set * assoc_ + w] << std::dec;
    os << " ]";
    return os.str();
}

} // namespace gippr::fastpath
