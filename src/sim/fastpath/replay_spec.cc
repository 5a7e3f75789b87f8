/**
 * @file
 * Replay spec implementation.
 */

#include "sim/fastpath/replay_spec.hh"

#include <sstream>

#include "core/dgippr.hh"
#include "core/giplr.hh"
#include "core/gippr.hh"
#include "core/plru.hh"
#include "core/rrip_ipv.hh"
#include "policies/lru.hh"
#include "util/log.hh"

namespace gippr::fastpath
{

std::string
ReplaySpec::name() const
{
    switch (kind) {
      case FastPolicyKind::Lru:
        return "LRU";
      case FastPolicyKind::Lip:
        return "LIP";
      case FastPolicyKind::Giplr:
        return "GIPLR";
      case FastPolicyKind::Plru:
        return "PLRU";
      case FastPolicyKind::Gippr:
        return "GIPPR";
      case FastPolicyKind::Dgippr:
        return std::to_string(ipvs.size()) + "-DGIPPR";
      case FastPolicyKind::Rrip:
        if (!ipvs.empty())
            return "RRIP-IPV";
        switch (rripMode) {
          case RripPolicy::Mode::Static:
            return "SRRIP";
          case RripPolicy::Mode::Bimodal:
            return "BRRIP";
          case RripPolicy::Mode::Dynamic:
            return "DRRIP";
        }
        return "RRIP";
      case FastPolicyKind::Pdp:
        return "PDP";
    }
    return "?";
}

ReplaySpec
lruSpec()
{
    ReplaySpec s;
    s.kind = FastPolicyKind::Lru;
    return s;
}

ReplaySpec
lipSpec()
{
    ReplaySpec s;
    s.kind = FastPolicyKind::Lip;
    return s;
}

ReplaySpec
giplrSpec(Ipv ipv)
{
    ReplaySpec s;
    s.kind = FastPolicyKind::Giplr;
    s.ipvs.push_back(std::move(ipv));
    return s;
}

ReplaySpec
plruSpec()
{
    ReplaySpec s;
    s.kind = FastPolicyKind::Plru;
    return s;
}

ReplaySpec
gipprSpec(Ipv ipv)
{
    ReplaySpec s;
    s.kind = FastPolicyKind::Gippr;
    s.ipvs.push_back(std::move(ipv));
    return s;
}

ReplaySpec
dgipprSpec(std::vector<Ipv> ipvs, unsigned leaders,
           unsigned counter_bits)
{
    ReplaySpec s;
    s.kind = FastPolicyKind::Dgippr;
    s.ipvs = std::move(ipvs);
    s.leaders = leaders;
    s.counterBits = counter_bits;
    return s;
}

ReplaySpec
rripSpec(RripPolicy::Mode mode, unsigned rrpv_bits, unsigned epsilon_inv,
         unsigned leaders, uint64_t seed)
{
    ReplaySpec s;
    s.kind = FastPolicyKind::Rrip;
    s.rripMode = mode;
    s.rrpvBits = rrpv_bits;
    s.epsilonInv = epsilon_inv;
    s.leaders = leaders;
    s.seed = seed;
    return s;
}

ReplaySpec
rripIpvSpec(Ipv ipv, unsigned rrpv_bits)
{
    ReplaySpec s;
    s.kind = FastPolicyKind::Rrip;
    s.rrpvBits = rrpv_bits;
    s.ipvs.push_back(std::move(ipv));
    return s;
}

ReplaySpec
pdpSpec(PdpParams params)
{
    ReplaySpec s;
    s.kind = FastPolicyKind::Pdp;
    s.pdp = params;
    return s;
}

bool
couplesSets(const ReplaySpec &spec)
{
    switch (spec.kind) {
      case FastPolicyKind::Lru:
      case FastPolicyKind::Lip:
      case FastPolicyKind::Giplr:
      case FastPolicyKind::Plru:
      case FastPolicyKind::Gippr:
        return false;
      case FastPolicyKind::Dgippr:
      case FastPolicyKind::Pdp:
        return true;
      case FastPolicyKind::Rrip:
        return spec.rripMode != RripPolicy::Mode::Static;
    }
    return true;
}

bool
keepsRecencyOrder(const ReplaySpec &spec)
{
    return spec.kind != FastPolicyKind::Rrip &&
           spec.kind != FastPolicyKind::Pdp;
}

CounterBank &
CounterBank::operator+=(const CounterBank &o)
{
    accesses += o.accesses;
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    writebacks += o.writebacks;
    demandAccesses += o.demandAccesses;
    demandMisses += o.demandMisses;
    return *this;
}

CounterBank
CounterBank::operator-(const CounterBank &o) const
{
    CounterBank d;
    d.accesses = accesses - o.accesses;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.evictions = evictions - o.evictions;
    d.writebacks = writebacks - o.writebacks;
    d.demandAccesses = demandAccesses - o.demandAccesses;
    d.demandMisses = demandMisses - o.demandMisses;
    return d;
}

CounterBank
toBank(const CacheStats &stats)
{
    CounterBank b;
    b.accesses = stats.accesses;
    b.hits = stats.hits;
    b.misses = stats.misses;
    b.evictions = stats.evictions;
    b.writebacks = stats.writebacks;
    b.demandAccesses = stats.demandAccesses;
    b.demandMisses = stats.demandMisses;
    return b;
}

CacheStats
ReplayStats::toCacheStats() const
{
    CacheStats s;
    s.accesses = measured.accesses;
    s.hits = measured.hits;
    s.misses = measured.misses;
    s.evictions = measured.evictions;
    s.writebacks = measured.writebacks;
    s.demandAccesses = measured.demandAccesses;
    s.demandMisses = measured.demandMisses;
    return s;
}

namespace
{

void
bankTo(std::ostream &os, const char *label, const CounterBank &b)
{
    os << label << "{acc " << b.accesses << " hit " << b.hits << " miss "
       << b.misses << " evict " << b.evictions << " wb " << b.writebacks
       << " dacc " << b.demandAccesses << " dmiss " << b.demandMisses
       << "}";
}

} // namespace

std::string
ReplayStats::toString() const
{
    std::ostringstream os;
    bankTo(os, "measured", measured);
    os << ' ';
    bankTo(os, "total", total);
    if (!duelCounters.empty()) {
        os << " winner " << finalWinner << " psel [";
        for (uint64_t v : duelCounters)
            os << ' ' << v;
        os << " ] leader_misses [";
        for (uint64_t v : leaderMisses)
            os << ' ' << v;
        os << " ]";
    }
    return os.str();
}

std::unique_ptr<ReplacementPolicy>
makeScalarPolicy(const ReplaySpec &spec, const CacheConfig &config,
                 unsigned domains)
{
    switch (spec.kind) {
      case FastPolicyKind::Lru:
        return std::make_unique<LruPolicy>(config);
      case FastPolicyKind::Lip:
        return std::make_unique<GiplrPolicy>(
            config, Ipv::lruInsertion(config.assoc));
      case FastPolicyKind::Giplr:
        if (spec.ipvs.size() != 1)
            fatal("GIPLR replay spec needs exactly one IPV");
        return std::make_unique<GiplrPolicy>(config, spec.ipvs.front());
      case FastPolicyKind::Plru:
        return std::make_unique<PlruPolicy>(config);
      case FastPolicyKind::Gippr:
        if (spec.ipvs.size() != 1)
            fatal("GIPPR replay spec needs exactly one IPV");
        return std::make_unique<GipprPolicy>(config, spec.ipvs.front());
      case FastPolicyKind::Dgippr:
        return std::make_unique<DgipprPolicy>(config, spec.ipvs,
                                              spec.leaders,
                                              spec.counterBits, domains);
      case FastPolicyKind::Rrip:
        if (spec.counterBits != 11)
            fatal("RRIP replay spec: the PSEL width is fixed at 11 bits");
        if (!spec.ipvs.empty()) {
            if (spec.ipvs.size() != 1 ||
                spec.rripMode != RripPolicy::Mode::Static)
                fatal("RRIP-IPV replay spec needs exactly one IPV and "
                      "static insertion");
            return std::make_unique<RripIpvPolicy>(
                config, spec.ipvs.front(), spec.rrpvBits);
        }
        return std::make_unique<RripPolicy>(
            config, spec.rripMode, spec.rrpvBits, spec.epsilonInv,
            spec.leaders, spec.seed);
      case FastPolicyKind::Pdp:
        return std::make_unique<PdpPolicy>(config, spec.pdp);
    }
    fatal("makeScalarPolicy: unknown policy kind");
}

const ReplaySpec *
specOf(const PolicyFactory &factory)
{
    const auto *spec_factory = factory.target<SpecFactory>();
    return spec_factory != nullptr ? &spec_factory->spec : nullptr;
}

void
scalarDuelStats(const ReplaySpec &spec, const ReplacementPolicy &policy,
                unsigned domain, ReplayStats &out)
{
    if (spec.kind == FastPolicyKind::Rrip &&
        spec.rripMode == RripPolicy::Mode::Dynamic && spec.ipvs.empty()) {
        // makeScalarPolicy builds a RripPolicy for every DRRIP spec.
        const TournamentSelector &sel =
            static_cast<const RripPolicy &>(policy).selector();
        out.finalWinner = sel.winner();
        out.duelCounters = sel.counterValues();
        return;
    }
    if (spec.kind != FastPolicyKind::Dgippr)
        return;
    // makeScalarPolicy builds a DgipprPolicy for every Dgippr spec.
    const auto &dg = static_cast<const DgipprPolicy &>(policy);
    out.finalWinner = dg.currentWinner(domain);
    out.duelCounters = dg.selector(domain).counterValues();
    out.leaderMisses = dg.leaderMisses(domain);
}

} // namespace gippr::fastpath
