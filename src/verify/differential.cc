/**
 * @file
 * Differential harness implementation.
 */

#include "verify/differential.hh"

#include <deque>
#include <sstream>

#include "core/dgippr.hh"
#include "core/giplr.hh"
#include "core/gippr.hh"
#include "core/plru.hh"
#include "core/vectors.hh"
#include "policies/lru.hh"
#include "util/check.hh"
#include "util/log.hh"
#include "util/rng.hh"

namespace gippr::verify
{

std::string
Divergence::toString() const
{
    std::ostringstream os;
    os << kind << " divergence at event " << eventIndex << ", set " << set
       << ": " << detail;
    return os.str();
}

DifferentialChecker::DifferentialChecker(
    std::unique_ptr<ReplacementPolicy> inner,
    std::unique_ptr<ReferenceOracle> oracle, PositionProbe probe,
    AuxProbe aux)
    : inner_(std::move(inner)), oracle_(std::move(oracle)),
      probe_(std::move(probe)), aux_(std::move(aux))
{
    GIPPR_CHECK(inner_ != nullptr);
    GIPPR_CHECK(oracle_ != nullptr);
    GIPPR_CHECK(probe_ != nullptr);
}

void
DifferentialChecker::recordDivergence(uint64_t set, const std::string &kind,
                                      const std::string &detail)
{
    if (divergence_)
        return;
    Divergence d;
    // Handlers bump events_ on entry; the diverging event's 0-based
    // index is therefore one less.
    d.eventIndex = events_ - 1;
    d.set = set;
    d.kind = kind;
    d.detail = detail;
    divergence_ = std::move(d);
}

void
DifferentialChecker::compareState(uint64_t set)
{
    if (divergence_)
        return;
    ++comparisons_;
    const std::vector<unsigned> got = probe_(*inner_, set);
    const std::vector<unsigned> want = oracle_->positions(set);
    if (got != want) {
        std::ostringstream os;
        os << inner_->name() << " positions [";
        for (unsigned p : got)
            os << ' ' << p;
        os << " ] vs " << oracle_->dumpSet(set);
        recordDivergence(set, "positions", os.str());
        return;
    }
    if (aux_) {
        const std::string got_aux = aux_(*inner_);
        const std::string want_aux = oracle_->auxState();
        if (got_aux != want_aux) {
            recordDivergence(set, "aux",
                             inner_->name() + " aux=" + got_aux + " vs " +
                                 oracle_->dumpSet(set));
        }
    }
}

unsigned
DifferentialChecker::victim(const AccessInfo &info)
{
    ++events_;
    const unsigned got = inner_->victim(info);
    if (!divergence_) {
        ++comparisons_;
        const unsigned want = oracle_->victim(info.set);
        if (got != want) {
            std::ostringstream os;
            os << inner_->name() << " evicts way " << got << " vs oracle way "
               << want << "; " << oracle_->dumpSet(info.set);
            recordDivergence(info.set, "victim", os.str());
        }
    }
    return got;
}

void
DifferentialChecker::onMiss(const AccessInfo &info)
{
    ++events_;
    inner_->onMiss(info);
    oracle_->onMiss(info.set, info.type != AccessType::Writeback);
    compareState(info.set);
}

void
DifferentialChecker::onInsert(unsigned way, const AccessInfo &info)
{
    ++events_;
    inner_->onInsert(way, info);
    oracle_->onInsert(info.set, way);
    compareState(info.set);
}

void
DifferentialChecker::onHit(unsigned way, const AccessInfo &info)
{
    ++events_;
    inner_->onHit(way, info);
    // Production policies ignore writeback hits by convention; the
    // oracle is only told about state-changing events.
    if (info.type != AccessType::Writeback)
        oracle_->onHit(info.set, way);
    compareState(info.set);
}

void
DifferentialChecker::onInvalidate(uint64_t set, unsigned way)
{
    ++events_;
    inner_->onInvalidate(set, way);
    oracle_->onInvalidate(set, way);
    compareState(set);
}

std::string
DifferentialChecker::name() const
{
    return inner_->name() + "+" + oracle_->name();
}

size_t
DifferentialChecker::stateBitsPerSet() const
{
    return inner_->stateBitsPerSet();
}

namespace
{

/**
 * Deterministic nontrivial IPV for associativities without a published
 * vector: mixes promotions toward MRU, a self-loop and an MRU demotion
 * so both shift directions are exercised.
 */
Ipv
syntheticIpv(unsigned ways, unsigned salt)
{
    std::vector<uint8_t> v(ways + 1, 0);
    for (unsigned i = 0; i < ways; ++i)
        v[i] = static_cast<uint8_t>((i / 2 + salt * (i % 3)) % ways);
    v[ways] = static_cast<uint8_t>((ways - 2 + salt) % ways);
    return Ipv(std::move(v));
}

std::vector<Ipv>
mirrorIpvs(const std::string &policy, unsigned ways)
{
    const bool paper_assoc = ways == 16;
    if (policy == "GIPLR") {
        return {paper_assoc ? local_vectors::giplr()
                            : syntheticIpv(ways, 1)};
    }
    if (policy == "GIPPR") {
        return {paper_assoc ? local_vectors::gippr()
                            : syntheticIpv(ways, 1)};
    }
    if (policy == "DGIPPR2") {
        if (paper_assoc)
            return local_vectors::dgippr2();
        return {syntheticIpv(ways, 1), syntheticIpv(ways, 2)};
    }
    if (policy == "DGIPPR4") {
        if (paper_assoc)
            return local_vectors::dgippr4();
        return {syntheticIpv(ways, 1), syntheticIpv(ways, 2),
                syntheticIpv(ways, 3), syntheticIpv(ways, 4)};
    }
    return {};
}

} // namespace

PositionProbe
recencyProbe(unsigned ways)
{
    return [ways](const ReplacementPolicy &p, uint64_t set) {
        std::vector<unsigned> pos(ways);
        for (unsigned w = 0; w < ways; ++w)
            pos[w] = *p.recencyPosition(set, w);
        return pos;
    };
}

std::vector<std::string>
mirrorNames()
{
    return {"LRU", "LIP", "GIPLR", "PLRU", "GIPPR", "DGIPPR2", "DGIPPR4"};
}

std::unique_ptr<DifferentialChecker>
makeMirror(const std::string &policy, const CacheConfig &config)
{
    const unsigned ways = config.assoc;
    const uint64_t sets = config.sets();

    if (policy == "LRU" || policy == "LIP" || policy == "GIPLR") {
        Ipv ipv = policy == "LRU"   ? Ipv::lru(ways)
                  : policy == "LIP" ? Ipv::lruInsertion(ways)
                                    : mirrorIpvs(policy, ways).front();
        std::unique_ptr<ReplacementPolicy> inner;
        if (policy == "LRU")
            inner = std::make_unique<LruPolicy>(config);
        else
            inner = std::make_unique<GiplrPolicy>(config, ipv);
        auto oracle = std::make_unique<RecencyStackOracle>(sets, ways,
                                                           std::move(ipv));
        return std::make_unique<DifferentialChecker>(
            std::move(inner), std::move(oracle), recencyProbe(ways));
    }

    if (policy == "PLRU" || policy == "GIPPR") {
        Ipv ipv = policy == "PLRU" ? Ipv::lru(ways)
                                   : mirrorIpvs(policy, ways).front();
        std::unique_ptr<ReplacementPolicy> inner;
        if (policy == "PLRU")
            inner = std::make_unique<PlruPolicy>(config);
        else
            inner = std::make_unique<GipprPolicy>(config, ipv);
        auto oracle =
            std::make_unique<PlruTreeOracle>(sets, ways, std::move(ipv));
        return std::make_unique<DifferentialChecker>(
            std::move(inner), std::move(oracle), recencyProbe(ways));
    }

    if (policy == "DGIPPR2" || policy == "DGIPPR4") {
        std::vector<Ipv> ipvs = mirrorIpvs(policy, ways);
        const unsigned leaders = 32;
        const unsigned counter_bits = 11;
        auto inner =
            std::make_unique<DgipprPolicy>(config, ipvs, leaders,
                                           counter_bits);
        AuxProbe aux = [](const ReplacementPolicy &p) {
            return std::to_string(
                dynamic_cast<const DgipprPolicy &>(p).currentWinner());
        };
        auto oracle = std::make_unique<DuelOracle>(
            sets, ways, std::move(ipvs), leaders, counter_bits);
        return std::make_unique<DifferentialChecker>(
            std::move(inner), std::move(oracle), recencyProbe(ways),
            std::move(aux));
    }

    fatal("makeMirror: unknown policy '" + policy + "'");
}

DifferentialResult
replayDifferential(const std::string &policy, const CacheConfig &config,
                   const Trace &trace, const ReplayOptions &opts)
{
    auto checker_owner = makeMirror(policy, config);
    DifferentialChecker *checker = checker_owner.get();
    SetAssocCache cache(config, std::move(checker_owner));

    DifferentialResult result;
    result.policy = policy;

    Rng rng(opts.invalidateSeed);
    std::deque<uint64_t> recent;
    uint64_t demand_seen = 0;
    for (const MemRecord &rec : trace) {
        cache.access(rec.addr, rec.type);
        ++result.accesses;
        if (opts.invalidateEvery == 0)
            continue;
        recent.push_back(rec.addr);
        if (recent.size() > 64)
            recent.pop_front();
        if (rec.type != AccessType::Writeback &&
            ++demand_seen % opts.invalidateEvery == 0) {
            const uint64_t addr =
                recent[rng.nextBounded(recent.size())];
            if (cache.probe(addr)) {
                cache.invalidate(addr);
                ++result.invalidates;
            }
        }
    }
    result.comparisons = checker->comparisons();
    result.divergence = checker->divergence();
    return result;
}

} // namespace gippr::verify
