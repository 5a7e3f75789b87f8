/**
 * @file
 * Selector engine implementation.
 */

#include "sim/select/engine.hh"

#include <algorithm>

#include "cache/replay.hh"
#include "policies/set_dueling.hh"
#include "sim/fastpath/engine.hh"
#include "sim/fastpath/scalar_model.hh"
#include "sim/fastpath/soa_cache.hh"
#include "sim/select/bandit.hh"
#include "sim/select/drift.hh"
#include "util/check.hh"
#include "util/hot.hh"

namespace gippr::select
{

namespace
{

/** One merged-stream record, decoded once outside the hot loop. */
struct Rec
{
    uint64_t addr = 0;
    uint64_t pc = 0;
    uint64_t set = 0;
    uint64_t block = 0;
    uint32_t core = 0;
    AccessType type = AccessType::Load;
    uint8_t demand = 0;
};

void
appendRecs(std::vector<Rec> &out, const MemRecord &r, uint32_t core,
           const AddressDecode &llc)
{
    Rec rec;
    rec.addr = r.addr;
    rec.pc = r.pc;
    rec.set = llc.setIndex(r.addr);
    rec.block = llc.blockAddr(r.addr);
    rec.core = core;
    rec.type = recordType(r);
    rec.demand = rec.type == AccessType::Writeback ? 0 : 1;
    out.push_back(rec);
}

/** Everything one epoch chunk mutates, as raw views so the chunk
 *  loop stays allocation-free. */
struct ChunkSinks
{
    fastpath::CounterBank *coreBank = nullptr;
    fastpath::CounterBank *coreWarm = nullptr;
    uint64_t *issued = nullptr;
    const uint64_t *warmups = nullptr;
    uint64_t *shadowDemand = nullptr;
    uint64_t *shadowMiss = nullptr;
    EpochRecord *epoch = nullptr;
};

/**
 * The selector's per-access hot path, over either arm model
 * (SoaCacheModel or ScalarModel, which hands spec-less arms each
 * record's pc): route each record through the chosen arm's main
 * model, mirror the sampled subset into EVERY arm's shadow model, and
 * fold outcome counters into the chunk sinks.  All arms shadow the
 * SAME sampled sets — identical traffic per arm — so their per-epoch
 * rewards compare policies, never the luck of which sets each arm
 * drew (disjoint per-arm samples invert rankings on skewed
 * workloads).  Branch structure is fixed for the whole chunk — the
 * bandit only acts between chunks.
 */
template <class Model>
GIPPR_HOT void
replayChunk(const Rec *recs, size_t count, Model &main, Model *shadows,
            unsigned shadow_arms, const int8_t *owners,
            DriftDetector *drift, ChunkSinks &s)
{
    for (size_t i = 0; i < count; ++i) {
        const Rec &r = recs[i];
        const uint32_t core = r.core;
        if (s.issued[core]++ == s.warmups[core])
            s.coreWarm[core] = s.coreBank[core];
        // Qualified calls keep ScalarModel's access path (virtual
        // policy dispatch, a victim lookup that can panic) out of
        // this function's purity closure; SoaCacheModel's is checked
        // as its own GIPPR_HOT root.
        const fastpath::SoaCacheModel::Step st =
            main.Model::accessAddr(r.addr, r.type, r.pc);
        fastpath::countStep(s.coreBank[core], st, r.demand != 0);
        s.epoch->accesses += 1;
        s.epoch->demandAccesses += r.demand;
        s.epoch->demandMisses += st.hit ? 0 : r.demand;
        if (owners != nullptr && owners[r.set] >= 0) {
            for (unsigned a = 0; a < shadow_arms; ++a) {
                const fastpath::SoaCacheModel::Step ss =
                    shadows[a].Model::accessAddr(r.addr, r.type, r.pc);
                if (r.demand != 0) {
                    s.shadowDemand[a] += 1;
                    s.shadowMiss[a] += ss.hit ? 0 : 1;
                }
            }
        }
        if (drift != nullptr && r.demand != 0)
            drift->observeBlock(r.block);
    }
}

/** The selector loop over a decoded merged stream, on the arm
 *  models @p make builds from each PolicyDef. */
template <class Make>
SelectResult
replayStream(const std::vector<PolicyDef> &library,
             const SelectConfig &cfg, const CacheConfig &llc,
             const std::vector<Rec> &recs, unsigned cores,
             const std::vector<uint64_t> &warmups, const Make &make)
{
    using Model = decltype(make(library.front()));
    const auto arms = static_cast<unsigned>(library.size());

    SelectResult result;
    result.arms.reserve(arms);
    for (const PolicyDef &def : library)
        result.arms.push_back(def.name);
    result.epochsChosen.assign(arms, 0);
    result.shadowDemandAccesses.assign(arms, 0);
    result.shadowDemandMisses.assign(arms, 0);

    // A single-arm library degenerates to a static replay: no leader
    // sampling, no shadow models, no drift bookkeeping.  With a duel,
    // LeaderSets picks the sampled sets (any set it assigns an owner)
    // and every arm's shadow replays that same sample.
    const bool duel = arms > 1;
    const uint64_t sets = llc.sets();
    std::vector<int8_t> owners;
    if (duel) {
        // The sample is SHARED — every arm shadows every sampled set —
        // so DIP's "keep 3/4 of the cache as followers" clamp does not
        // apply: a sampled set is not taken over by any policy, it
        // only costs shadow work.  Bound that work by the per-arm
        // request, sampling up to the whole cache on tiny geometries
        // (smaller samples make epoch rewards too noisy to separate
        // close policies).
        unsigned per_arm = 1;
        while (per_arm < cfg.leadersPerArm &&
               static_cast<uint64_t>(per_arm) * 2 * arms <= sets)
            per_arm *= 2;
        const LeaderSets leaders(sets, arms, per_arm);
        owners.resize(sets);
        for (uint64_t set = 0; set < sets; ++set)
            owners[set] = static_cast<int8_t>(leaders.owner(set));
    }

    std::vector<Model> mains;
    std::vector<Model> shadows;
    mains.reserve(arms);
    for (const PolicyDef &def : library)
        mains.push_back(make(def));
    if (duel) {
        shadows.reserve(arms);
        for (const PolicyDef &def : library)
            shadows.push_back(make(def));
    }

    BanditSelector bandit(cfg, arms);
    DriftDetector drift(cfg.drift);
    const bool use_drift = duel && cfg.drift.enabled;

    std::vector<fastpath::CounterBank> core_bank(cores);
    std::vector<fastpath::CounterBank> core_warm(cores);
    std::vector<uint64_t> issued(cores, 0);

    ChunkSinks sinks;
    sinks.coreBank = core_bank.data();
    sinks.coreWarm = core_warm.data();
    sinks.issued = issued.data();
    sinks.warmups = warmups.data();
    sinks.shadowDemand = result.shadowDemandAccesses.data();
    sinks.shadowMiss = result.shadowDemandMisses.data();

    std::vector<double> rewards(arms, 0.0);
    std::vector<uint8_t> sampled(arms, 0);
    std::vector<uint64_t> shadow_demand_base(arms, 0);
    std::vector<uint64_t> shadow_miss_base(arms, 0);

    unsigned current = 0;
    size_t pos = 0;
    while (pos < recs.size()) {
        const size_t count = std::min<size_t>(
            cfg.epochLength, recs.size() - pos);
        EpochRecord epoch;
        epoch.chosen = current;
        sinks.epoch = &epoch;
        if (duel) {
            for (unsigned a = 0; a < arms; ++a) {
                shadow_demand_base[a] = result.shadowDemandAccesses[a];
                shadow_miss_base[a] = result.shadowDemandMisses[a];
            }
        }

        const int8_t *owner_view = duel ? owners.data() : nullptr;
        DriftDetector *drift_view = use_drift ? &drift : nullptr;
        const unsigned shadow_arms = duel ? arms : 0;
        replayChunk(recs.data() + pos, count, mains[current],
                    shadows.data(), shadow_arms, owner_view, drift_view,
                    sinks);
        pos += count;

        // Boundary: score the epoch's shadow traffic, test for
        // drift, pick the arm.
        uint64_t shadow_demand = 0;
        uint64_t shadow_misses = 0;
        if (duel) {
            for (unsigned a = 0; a < arms; ++a) {
                const uint64_t d = result.shadowDemandAccesses[a] -
                                   shadow_demand_base[a];
                const uint64_t m = result.shadowDemandMisses[a] -
                                   shadow_miss_base[a];
                shadow_demand += d;
                shadow_misses += m;
                sampled[a] = d > 0 ? 1 : 0;
                rewards[a] = d > 0 ? 1.0 - static_cast<double>(m) /
                                               static_cast<double>(d)
                                   : 0.0;
            }
        }
        // The drift detector's rate input is the AGGREGATE leader-set
        // shadow miss rate, not the served stream's: shadows replay
        // fixed policies, so a bandit switch (whose cold main model
        // misses hard for an epoch) cannot masquerade as a workload
        // phase change — only the stream itself moves this signal.
        const double shadow_rate =
            shadow_demand ? static_cast<double>(shadow_misses) /
                                static_cast<double>(shadow_demand)
                          : 0.0;
        bool drifted = false;
        if (use_drift && drift.epochBoundary(shadow_rate)) {
            drifted = true;
            bandit.resetEvidence();
            ++result.driftResets;
        }
        epoch.drift = drifted ? 1 : 0;
        if (duel && pos < recs.size()) {
            bandit.recordEpochRewards(rewards.data(), sampled.data());
            const unsigned next = bandit.chooseArm(current);
            if (next != current) {
                ++result.switches;
                current = next;
            }
        }
        result.epochsChosen[epoch.chosen] += 1;
        result.timeline.push_back(epoch);
    }

    // Cores whose whole stream was warmup never snapped in the loop
    // (warmup == length), matching the replay engines' convention.
    for (unsigned c = 0; c < cores; ++c) {
        GIPPR_CHECK(warmups[c] <= issued[c]);
        if (warmups[c] == issued[c])
            core_warm[c] = core_bank[c];
    }

    result.coreTotal = core_bank;
    result.coreMeasured.resize(cores);
    for (unsigned c = 0; c < cores; ++c) {
        result.coreMeasured[c] = core_bank[c] - core_warm[c];
        result.measured += result.coreMeasured[c];
        result.total += core_bank[c];
    }
    return result;
}

/** replayStream on the backend resolveBackend() picks. */
SelectResult
runStream(const std::vector<PolicyDef> &library, const SelectConfig &cfg,
          const CacheConfig &llc, const std::vector<Rec> &recs,
          unsigned cores, const std::vector<uint64_t> &warmups,
          Backend requested)
{
    llc.validate();
    GIPPR_CHECK(!library.empty());
    GIPPR_CHECK(cfg.epochLength > 0);
    GIPPR_CHECK(cores >= 1 && warmups.size() == cores);
    if (resolveBackend(library, llc, requested) == Backend::Fast)
        return replayStream(
            library, cfg, llc, recs, cores, warmups,
            [&llc](const PolicyDef &def) {
                return fastpath::SoaCacheModel(*def.fastSpec, llc);
            });
    return replayStream(library, cfg, llc, recs, cores, warmups,
                        [&llc](const PolicyDef &def) {
                            return fastpath::ScalarModel(llc,
                                                         def.make(llc));
                        });
}

} // namespace

Backend
resolveBackend(const std::vector<PolicyDef> &library,
               const CacheConfig &llc, Backend requested)
{
    if (requested == Backend::Scalar)
        return Backend::Scalar;
    for (const PolicyDef &def : library) {
        if (!def.fastSpec.has_value() ||
            !fastpath::SoaCacheModel::supports(*def.fastSpec, llc)) {
            return Backend::Scalar;
        }
    }
    return Backend::Fast;
}

SelectResult
runSelect(const std::vector<PolicyDef> &library, const SelectConfig &cfg,
          const CacheConfig &llc, const Trace &trace, size_t warmup,
          Backend backend)
{
    GIPPR_CHECK(warmup <= trace.size());
    const AddressDecode decode(llc);
    std::vector<Rec> recs;
    recs.reserve(trace.size());
    for (const MemRecord &r : trace.records())
        appendRecs(recs, r, 0, decode);
    const std::vector<uint64_t> warmups = {warmup};
    return runStream(library, cfg, llc, recs, 1, warmups, backend);
}

SelectResult
runSelectShared(const std::vector<multicore::CoreStream> &streams,
                multicore::Schedule schedule,
                const std::vector<PolicyDef> &library,
                const SelectConfig &cfg, const CacheConfig &llc,
                double warmup_fraction, Backend backend)
{
    GIPPR_CHECK(!streams.empty());
    GIPPR_CHECK(warmup_fraction >= 0.0 && warmup_fraction <= 1.0);
    const auto cores = static_cast<unsigned>(streams.size());
    std::vector<uint64_t> lengths(cores);
    std::vector<uint64_t> weights(cores);
    std::vector<uint64_t> warmups(cores);
    size_t merged_size = 0;
    for (unsigned c = 0; c < cores; ++c) {
        GIPPR_CHECK(streams[c].trace != nullptr);
        lengths[c] = streams[c].trace->size();
        weights[c] = streams[c].weight;
        warmups[c] = static_cast<uint64_t>(
            static_cast<double>(lengths[c]) * warmup_fraction);
        merged_size += lengths[c];
    }

    const AddressDecode decode(llc);
    std::vector<Rec> recs;
    recs.reserve(merged_size);
    std::vector<size_t> cursor(cores, 0);
    multicore::Interleaver il(schedule, lengths, weights);
    int c;
    while ((c = il.next()) >= 0) {
        const auto core = static_cast<unsigned>(c);
        const MemRecord &r = (*streams[core].trace)[cursor[core]++];
        appendRecs(recs, r, core, decode);
    }
    return runStream(library, cfg, llc, recs, cores, warmups, backend);
}

Trace
mergedTrace(const std::vector<multicore::CoreStream> &streams,
            multicore::Schedule schedule)
{
    GIPPR_CHECK(!streams.empty());
    const auto cores = static_cast<unsigned>(streams.size());
    std::vector<uint64_t> lengths(cores);
    std::vector<uint64_t> weights(cores);
    size_t merged_size = 0;
    for (unsigned c = 0; c < cores; ++c) {
        GIPPR_CHECK(streams[c].trace != nullptr);
        lengths[c] = streams[c].trace->size();
        weights[c] = streams[c].weight;
        merged_size += lengths[c];
    }
    Trace out;
    out.reserve(merged_size);
    std::vector<size_t> cursor(cores, 0);
    multicore::Interleaver il(schedule, lengths, weights);
    int c;
    while ((c = il.next()) >= 0) {
        const auto core = static_cast<unsigned>(c);
        out.append((*streams[core].trace)[cursor[core]++]);
    }
    return out;
}

std::vector<StaticOracleRow>
staticOracle(const std::vector<PolicyDef> &library,
             const CacheConfig &llc, const Trace &trace, size_t warmup,
             Backend backend)
{
    // Arms without a fast spec replay on the scalar simulator under
    // either backend (identical by definition, so reports stay
    // byte-comparable).
    const fastpath::ReplayEngine &engine =
        multicore::replayEngineFor(backend);
    std::vector<StaticOracleRow> rows;
    rows.reserve(library.size());
    for (const PolicyDef &def : library)
        rows.push_back(
            {def.name, replayPolicy(def, llc, trace, warmup, engine)});
    return rows;
}

size_t
bestStaticIndex(const std::vector<StaticOracleRow> &rows)
{
    GIPPR_CHECK(!rows.empty());
    size_t best = 0;
    for (size_t i = 1; i < rows.size(); ++i)
        if (rows[i].measured.demandMisses <
            rows[best].measured.demandMisses)
            best = i;
    return best;
}

} // namespace gippr::select
