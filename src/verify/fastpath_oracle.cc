/**
 * @file
 * Lock-step fastpath oracle implementation.
 */

#include "verify/fastpath_oracle.hh"

#include <sstream>

#include "core/rrip_ipv.hh"
#include "policies/pdp.hh"
#include "policies/rrip.hh"
#include "util/check.hh"
#include "verify/differential.hh"

namespace gippr::verify
{

using fastpath::FastPolicyKind;
using fastpath::SoaCacheModel;

std::string
FastpathResult::toString() const
{
    std::ostringstream os;
    os << policy << " on " << stream << ": " << accesses << " accesses, "
       << comparisons << " comparisons, ";
    if (divergence)
        os << divergence->toString();
    else
        os << "no divergence";
    return os.str();
}

FastpathOracle::FastpathOracle(const fastpath::ReplaySpec &spec,
                               const CacheConfig &config)
    : spec_(spec), config_(config),
      scalar_(config, fastpath::makeScalarPolicy(spec, config)),
      model_(spec, config)
{
    GIPPR_CHECK(SoaCacheModel::supports(spec, config));
}

std::vector<unsigned>
FastpathOracle::scalarLineState(uint64_t set) const
{
    // makeScalarPolicy fixes the policy class of every spec kind.
    const ReplacementPolicy &policy = scalar_.policy();
    std::vector<unsigned> out(config_.assoc);
    switch (spec_.kind) {
      case FastPolicyKind::Rrip:
        for (unsigned w = 0; w < config_.assoc; ++w)
            out[w] = spec_.ipvs.empty()
                         ? static_cast<const RripPolicy &>(policy)
                               .rrpv(set, w)
                         : static_cast<const RripIpvPolicy &>(policy)
                               .rrpv(set, w);
        return out;
      case FastPolicyKind::Pdp: {
        const auto &pdp = static_cast<const PdpPolicy &>(policy);
        for (unsigned w = 0; w < config_.assoc; ++w)
            out[w] = pdp.protection(set, w) +
                     (pdp.reusedAt(set, w) ? 256u : 0u);
        return out;
      }
      default:
        return recencyProbe(config_.assoc)(policy, set);
    }
}

std::string
FastpathOracle::duelMismatch() const
{
    fastpath::ReplayStats want;
    fastpath::ReplayStats got;
    fastpath::scalarDuelStats(spec_, scalar_.policy(), 0, want);
    model_.duelStats(0, got);
    if (want == got) // only the duel fields were written
        return "";
    return "scalar duel {" + want.toString() + "} vs fast {" +
           got.toString() + "}";
}

std::string
FastpathOracle::dumpBoth(uint64_t set) const
{
    std::ostringstream os;
    os << "scalar state [";
    for (unsigned p : scalarLineState(set))
        os << ' ' << p;
    os << " ] blocks [";
    for (unsigned w = 0; w < config_.assoc; ++w) {
        auto block = scalar_.blockAt(set, w);
        if (block)
            os << " 0x" << std::hex << *block << std::dec;
        else
            os << " -";
    }
    os << " ]";
    fastpath::ReplayStats duel;
    fastpath::scalarDuelStats(spec_, scalar_.policy(), 0, duel);
    if (!duel.duelCounters.empty())
        os << " winner=" << duel.finalWinner;
    os << " | fast " << model_.dumpSet(set);
    return os.str();
}

void
FastpathOracle::record(FastpathResult &result, uint64_t index,
                       uint64_t set, const std::string &kind,
                       const std::string &detail)
{
    if (result.divergence)
        return;
    Divergence d;
    d.eventIndex = index;
    d.set = set;
    d.kind = kind;
    d.detail = detail;
    result.divergence = std::move(d);
}

void
FastpathOracle::compareState(FastpathResult &result, uint64_t index,
                             uint64_t set)
{
    if (result.divergence)
        return;
    ++result.comparisons;
    const std::vector<unsigned> want = scalarLineState(set);
    const std::vector<unsigned> got = model_.lineState(set);
    if (got != want) {
        record(result, index, set, "line-state", dumpBoth(set));
        return;
    }
    // Valid bits must agree way-for-way; tag contents are already
    // pinned by the per-access hit/way comparisons.
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (scalar_.blockAt(set, w).has_value() !=
            model_.validAt(set, w)) {
            record(result, index, set, "valid", dumpBoth(set));
            return;
        }
    }
    if (const std::string duel = duelMismatch(); !duel.empty())
        record(result, index, set, "duel", duel + "; " + dumpBoth(set));
}

FastpathResult
FastpathOracle::run(const Trace &trace, const std::string &stream,
                    uint64_t state_check_every)
{
    FastpathResult result;
    result.policy = spec_.name();
    result.stream = stream;

    const AddressDecode decode(config_);
    for (const MemRecord &rec : trace) {
        const uint64_t set = decode.setIndex(rec.addr);
        const AccessResult want = scalar_.access(rec.addr, rec.type);
        const SoaCacheModel::Step got =
            model_.accessAddr(rec.addr, rec.type);
        const uint64_t index = accessesSoFar_++;
        ++result.accesses;

        if (!result.divergence) {
            ++result.comparisons;
            if (want.hit != got.hit) {
                record(result, index, set,
                       got.hit ? "fast-hit-scalar-miss"
                               : "fast-miss-scalar-hit",
                       dumpBoth(set));
            } else if (!want.bypassed && want.way != got.way) {
                std::ostringstream os;
                os << "scalar way " << want.way << " vs fast way "
                   << got.way << "; " << dumpBoth(set);
                record(result, index, set, "way", os.str());
            } else if (want.evictedBlock.has_value() != got.evicted) {
                record(result, index, set, "evicted", dumpBoth(set));
            } else if (got.evicted &&
                       (*want.evictedBlock !=
                            decode.blockOf(set, got.evictedTag) ||
                        want.evictedDirty != got.evictedDirty)) {
                std::ostringstream os;
                os << "scalar evicts 0x" << std::hex
                   << *want.evictedBlock
                   << (want.evictedDirty ? " dirty" : " clean")
                   << " vs fast 0x"
                   << decode.blockOf(set, got.evictedTag)
                   << std::dec << (got.evictedDirty ? " dirty" : " clean")
                   << "; " << dumpBoth(set);
                record(result, index, set, "victim", os.str());
            }
        }

        if (state_check_every != 0 &&
            (index + 1) % state_check_every == 0)
            compareState(result, index, set);
    }

    // Full final sweep: every set's state plus the counter banks.
    if (!result.divergence) {
        for (uint64_t s = 0; s < model_.sets(); ++s)
            compareState(result,
                         accessesSoFar_ ? accessesSoFar_ - 1 : 0, s);
    }
    if (!result.divergence) {
        const CacheStats &sc = scalar_.stats();
        const fastpath::CounterBank &fb = model_.stats().total;
        const bool same =
            sc.accesses == fb.accesses && sc.hits == fb.hits &&
            sc.misses == fb.misses && sc.evictions == fb.evictions &&
            sc.writebacks == fb.writebacks &&
            sc.demandAccesses == fb.demandAccesses &&
            sc.demandMisses == fb.demandMisses && sc.bypasses == 0;
        if (!same) {
            std::ostringstream os;
            os << "scalar {acc " << sc.accesses << " hit " << sc.hits
               << " miss " << sc.misses << " evict " << sc.evictions
               << " wb " << sc.writebacks << " dacc "
               << sc.demandAccesses << " dmiss " << sc.demandMisses
               << " byp " << sc.bypasses << "} vs fast "
               << model_.stats().toString();
            record(result, accessesSoFar_ ? accessesSoFar_ - 1 : 0, 0,
                   "stats", os.str());
        }
    }
    return result;
}

} // namespace gippr::verify
