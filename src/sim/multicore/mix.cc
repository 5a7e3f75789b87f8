/**
 * @file
 * Mix parsing and per-core LLC stream construction.
 */

#include "sim/multicore/mix.hh"

#include <string_view>

#include "util/check.hh"
#include "util/env.hh"
#include "util/log.hh"
#include "util/parallel.hh"

namespace gippr::multicore
{

namespace
{

const WorkloadSpec *
findSpec(const std::vector<WorkloadSpec> &specs, const std::string &name)
{
    for (const auto &s : specs)
        if (s.name == name)
            return &s;
    return nullptr;
}

TenantSpec
parseTenant(const std::string &entry)
{
    TenantSpec t;
    auto colon = entry.find(':');
    if (colon == std::string::npos) {
        t.workload = entry;
    } else {
        t.workload = entry.substr(0, colon);
        t.weight = parseUnsigned("mix weight of " + t.workload,
                                 std::string_view(entry).substr(colon + 1));
    }
    if (t.workload.empty())
        fatal("empty workload name in mix entry: " + entry);
    if (t.weight == 0)
        fatal("mix weight must be >= 1: " + entry);
    return t;
}

} // namespace

const std::vector<MixSpec> &
presetMixes()
{
    // The first four are the historical bench mixes (ext_multicore);
    // kv-serving exercises the KV-cache multi-tenant family.
    static const std::vector<MixSpec> mixes = {
        {"thrash-heavy",
         {{"loop_thrash", 1},
          {"loop_thrash2x", 1},
          {"chase_medium", 1},
          {"stream_pure", 1}}},
        {"balanced",
         {{"loop_thrash", 1},
          {"zipf_hot", 1},
          {"hotcold_scan", 1},
          {"loop_fit", 1}}},
        {"reuse-heavy",
         {{"zipf_hot", 1},
          {"zipf_twophase", 1},
          {"loop_fit", 1},
          {"stencil_rows", 1}}},
        {"stream-polluted",
         {{"stream_pure", 1},
          {"stream_strided", 1},
          {"zipf_hot", 1},
          {"hotcold_stream", 1}}},
        {"kv-serving",
         {{"kv_zipf_4t", 2},
          {"kv_hot_tenant", 4},
          {"kv_churn", 1},
          {"kv_scan_victim", 1}}},
    };
    return mixes;
}

MixSpec
parseMixSpec(const std::string &text, unsigned cores)
{
    GIPPR_CHECK(cores >= 1);

    MixSpec mix;
    for (const MixSpec &m : presetMixes()) {
        if (m.name == text) {
            mix = m;
            break;
        }
    }
    if (mix.tenants.empty()) {
        mix.name = text;
        size_t pos = 0;
        while (pos <= text.size()) {
            size_t comma = text.find(',', pos);
            size_t end = comma == std::string::npos ? text.size() : comma;
            std::string entry = text.substr(pos, end - pos);
            if (entry.empty())
                fatal("empty entry in mix spec: " + text);
            mix.tenants.push_back(parseTenant(entry));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }
    if (mix.tenants.empty())
        fatal("empty mix spec: " + text);

    // Cycle shorter lists over the cores; truncate longer ones.
    std::vector<TenantSpec> tenants;
    tenants.reserve(cores);
    for (unsigned c = 0; c < cores; ++c)
        tenants.push_back(mix.tenants[c % mix.tenants.size()]);
    mix.tenants = std::move(tenants);
    return mix;
}

std::vector<CoreStream>
buildCoreStreams(const MixSpec &mix, const SyntheticSuite &suite,
                 const HierarchyConfig &hier, LlcTraceCache *cache)
{
    LlcTraceCache local;
    LlcTraceCache &tc = cache ? *cache : local;

    std::vector<WorkloadSpec> kv;
    bool kv_built = false;
    std::vector<WorkloadSpec> ps;
    bool ps_built = false;

    // One cut spec per distinct workload; slot[i] is tenant i's.
    std::vector<WorkloadSpec> distinct;
    std::vector<size_t> slot;
    slot.reserve(mix.tenants.size());
    for (const TenantSpec &t : mix.tenants) {
        const WorkloadSpec *seen = findSpec(distinct, t.workload);
        if (seen != nullptr) {
            slot.push_back(static_cast<size_t>(seen - distinct.data()));
            continue;
        }
        const WorkloadSpec *spec = findSpec(suite.specs(), t.workload);
        if (spec == nullptr) {
            if (!kv_built) {
                kv = kvCacheFamily(suite.params());
                kv_built = true;
            }
            spec = findSpec(kv, t.workload);
        }
        if (spec == nullptr) {
            if (!ps_built) {
                ps = phaseShiftFamily(suite.params());
                ps_built = true;
            }
            spec = findSpec(ps, t.workload);
        }
        if (spec == nullptr)
            fatal("unknown workload in mix: " + t.workload);

        // First simpoint only, matching the historical bench mixes:
        // multi-programmed runs want one contiguous stream per core.
        // Cutting the spec down keeps the cache from building the
        // simpoints no core replays; the key hashes every simpoint,
        // so the cut spec has its own entry with the same trace.
        GIPPR_CHECK(!spec->simpoints.empty());
        WorkloadSpec first = *spec;
        first.simpoints.resize(1);
        slot.push_back(distinct.size());
        distinct.push_back(std::move(first));
    }

    // The distinct streams are independent, and get() builds outside
    // its lock, so they build concurrently.
    std::vector<std::shared_ptr<const LlcTraceCache::Entries>> built(
        distinct.size());
    parallelFor(distinct.size(), resolveThreads(0), [&](size_t d) {
        built[d] = tc.get(distinct[d], hier, nullptr);
    });

    std::vector<CoreStream> streams;
    streams.reserve(mix.tenants.size());
    std::vector<bool> returned(distinct.size(), false);
    for (size_t i = 0; i < mix.tenants.size(); ++i) {
        const TenantSpec &t = mix.tenants[i];
        const size_t d = slot[i];
        // A repeated tenant looks its stream up again, a hit, so the
        // cache counts one lookup per tenant as a serial loop would.
        auto entries = returned[d] ? tc.get(distinct[d], hier, nullptr)
                                   : built[d];
        returned[d] = true;
        const LlcTraceCache::Entry &e = entries->front();
        CoreStream cs;
        cs.workload = t.workload;
        cs.trace = e.demandTrace;
        cs.instructions = e.instructions;
        cs.weight = t.weight;
        streams.push_back(std::move(cs));
    }
    return streams;
}

} // namespace gippr::multicore
