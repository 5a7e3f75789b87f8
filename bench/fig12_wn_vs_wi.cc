/**
 * @file
 * Figure 12: workload-neutral (WN1) versus workload-inclusive (WI)
 * vector evolution.
 *
 * The paper's methodology check: for each workload, WN1 evolves
 * vectors using every *other* workload's traces (leave-one-out),
 * while WI trains on everything.  The paper finds the gap small
 * (e.g. 5.61% vs 5.66% geomean for 4 vectors), evidence the evolved
 * vectors generalize.  This bench runs the library's evolveWi and
 * evolveWn1 (ga/crossval.hh) on a representative sub-suite and
 * reports estimated speedup over LRU (the GA's own fitness metric)
 * for 1-, 2- and 4-vector configurations under both methodologies;
 * the 1- and 2-vector sets are prefixes of each greedy 4-vector set.
 */

#include <cstdio>

#include "common.hh"
#include "core/vectors.hh"
#include "sim/policy_zoo.hh"
#include "util/stats.hh"

using namespace gippr;
using namespace gippr::bench;

namespace
{

/**
 * Estimated speedup over LRU of each vector set on one workload,
 * using the fitness function's linear CPI model (single vector ->
 * GIPPR; multiple -> DGIPPR duel).  Each trace replays LRU and every
 * set in one replayPolicies pass.
 */
std::vector<double>
speedupsOn(const CacheConfig &llc, const WorkloadTraces &w,
           const std::vector<std::vector<Ipv>> &sets)
{
    std::vector<PolicyDef> policies = {lruDef()};
    for (const std::vector<Ipv> &set : sets)
        policies.push_back(set.size() == 1
                               ? gipprDef("GIPPR", set[0])
                               : dgipprDef("DGIPPR", set, 32));
    std::vector<std::vector<double>> speedups(sets.size());
    CpiModel model;
    for (const auto &ft : w.traces) {
        size_t warmup = ft.llcTrace->size() / 3;
        uint64_t inst = ft.instructions * 2 / 3;
        const std::vector<fastpath::CounterBank> measured =
            replayPolicies(policies, llc, *ft.llcTrace, warmup,
                           fastpath::defaultReplayEngine());
        auto cpi = [&](const fastpath::CounterBank &c) {
            double mpi = inst ? static_cast<double>(c.demandMisses) /
                                    static_cast<double>(inst)
                              : 0.0;
            return model.baseCpi + model.missPenalty * mpi;
        };
        for (size_t k = 0; k < sets.size(); ++k)
            speedups[k].push_back(cpi(measured[0]) / cpi(measured[k + 1]));
    }
    std::vector<double> out;
    for (const std::vector<double> &s : speedups)
        out.push_back(mean(s));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Session session(argc, argv, "fig12_wn_vs_wi");
    Scale scale = resolveScale();
    banner("fig12_wn_vs_wi: workload-neutral vs workload-inclusive",
           "Figure 12 / Sections 4.4 and 5.2.1");

    SyntheticSuite suite(suiteParams(scale));
    SystemParams sys = systemParams();
    session.recordScale(scale);
    session.setConfig("system", toJson(sys));

    // A diverse sub-suite keeps the leave-one-out GA affordable.
    std::vector<std::string> names = {
        "stream_pure", "loop_thrash", "loop_fit",     "chase_medium",
        "zipf_hot",    "hotcold_scan", "sd_bimodal",  "sd_midrange",
        "mix_zipfscan", "phase_loopstream",
    };
    std::printf("building LLC traces for %zu workloads...\n",
                names.size());
    std::vector<WorkloadTraces> workloads =
        fitnessWorkloads(suite, names, sys.hier);
    const CacheConfig &llc = sys.hier.llc;

    GaParams params = scale.ga;
    params.timings = &session.timings();
    params.seed = 0xF16012;
    // Seed the search with the archetypes (as examples/evolve_ipv
    // does) so duel-set selection has diverse material even when the
    // population converges.
    params.seedIpvs = {Ipv::lru(16), Ipv::lruInsertion(16),
                       paper_vectors::wiGippr(),
                       paper_vectors::wi4Dgippr()[2]};
    // Each methodology evolves one greedy 4-vector set per training
    // set; its 1- and 2-vector prefixes are the smaller columns.
    const auto nested = [](const std::vector<Ipv> &four) {
        return std::vector<std::vector<Ipv>>{
            {four[0]}, {four[0], four[1]}, four};
    };
    std::printf("evolving WI vectors...\n");
    const std::vector<std::vector<Ipv>> wi_sets = nested(
        evolveWi(llc, workloads, IpvFamily::Gippr, 4, params));
    std::printf("evolving WN1 vectors (%zu folds)...\n",
                workloads.size());
    const Wn1Vectors wn1 =
        evolveWn1(llc, workloads, IpvFamily::Gippr, 4, params);

    Table table({"workload", "WN1-GIPPR", "WI-GIPPR", "WN1-2-DGIPPR",
                 "WI-2-DGIPPR", "WN1-4-DGIPPR", "WI-4-DGIPPR"});
    std::vector<std::vector<double>> columns(6);
    for (const auto &w : workloads) {
        table.newRow().add(w.name);
        // The table's column order: WN1 then WI per set size.
        const std::vector<std::vector<Ipv>> wn_sets =
            nested(wn1.at(w.name));
        std::vector<std::vector<Ipv>> sets;
        for (size_t cfg_idx = 0; cfg_idx < 3; ++cfg_idx) {
            sets.push_back(wn_sets[cfg_idx]);
            sets.push_back(wi_sets[cfg_idx]);
        }
        const std::vector<double> speedups = speedupsOn(llc, w, sets);
        for (size_t c = 0; c < speedups.size(); ++c) {
            table.add(speedups[c], 4);
            columns[c].push_back(speedups[c]);
        }
    }
    table.newRow().add("geomean");
    for (auto &col : columns)
        table.add(geomean(col), 4);
    emitTable(table, "fig12");
    session.addTable("fig12", "estimated speedup over LRU", table);

    std::printf("\nWI vectors evolved (4-vector set):\n");
    for (const Ipv &v : wi_sets[2])
        std::printf("  %s\n", v.toString().c_str());
    note("paper shape: WI slightly >= WN1 but the gap is small, and "
         "more vectors help under both methodologies; occasionally a "
         "WN1 fold beats WI (the GA is not optimal), which the paper "
         "also observed");
    session.emit();
    return 0;
}
