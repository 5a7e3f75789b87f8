/**
 * @file
 * Extension: IPVs generalized to RRIP (paper Section 7, future-work
 * item 5: "it may be adapted to other LRU-like algorithms such as
 * RRIP").
 *
 * Evolves a 2-bit re-reference vector with the same GA used for
 * GIPPR, then compares: SRRIP (the hand-designed point of the space),
 * the evolved RRIP-IPV, DRRIP, and 4-DGIPPR.
 */

#include <cstdio>

#include "common.hh"
#include "core/rrip_ipv.hh"
#include "core/vectors.hh"
#include "ga/genetic.hh"

using namespace gippr;
using namespace gippr::bench;

int
main(int argc, char **argv)
{
    Session session(argc, argv, "ext_rrip_ipv");
    Scale scale = resolveScale();
    banner("ext_rrip_ipv: evolving re-reference vectors for RRIP",
           "Section 7, future-work item 5");

    SyntheticSuite suite(suiteParams(scale));
    SystemParams sys = systemParams();

    // Evolve on a cross-section of the suite (5-entry vectors: tiny
    // space, so a small GA suffices; exhaustive would be 4^5 = 1024).
    std::vector<std::string> training = {
        "stream_pure", "loop_thrash",  "loop_fit",   "chase_medium",
        "zipf_hot",    "hotcold_scan", "sd_bimodal", "mix_zipfscan",
    };
    FitnessEvaluator fitness(
        sys.hier.llc,
        flattenExcept(fitnessWorkloads(suite, training, sys.hier), ""), {},
        &session.timings());
    fitness.attachTelemetry(session.registry(), "fitness");

    GaParams params = scale.ga;
    params.timings = &session.timings();
    params.initialPopulation = 64;
    params.population = 32;
    params.generations = 8;
    params.seedIpvs = {RripIpvPolicy::srripVector()};
    params.seed = 0x881BB1;
    GaResult ga = evolveIpv(fitness, IpvFamily::RripIpv, params);
    std::printf("evolved re-reference vector: %s (fitness %.4f)\n",
                ga.best.toString().c_str(), ga.bestFitness);
    std::printf("SRRIP point of the space:    %s (fitness %.4f)\n\n",
                RripIpvPolicy::srripVector().toString().c_str(),
                fitness.evaluate(RripIpvPolicy::srripVector(),
                                 IpvFamily::RripIpv));

    // Full-suite miss comparison.
    ExperimentConfig cfg = session.experimentConfig(scale);
    std::vector<PolicyDef> policies = {
        policyByName("LRU"),
        policyByName("SRRIP"),
        rripIpvDef("RRIP-IPV", ga.best),
        policyByName("DRRIP"),
        dgipprDef("4-DGIPPR", local_vectors::dgippr4()),
    };
    session.recordPolicies(policies);
    ExperimentResult r = runMissExperiment(suite, policies, cfg);
    size_t lru = r.columnIndex("LRU");
    Table table = r.toNormalizedTable(lru, false, std::nullopt);
    emitTable(table, "ext_rrip_ipv");
    session.addResult("ext_rrip_ipv", r);
    session.setConfig("evolved_rrip_ipv",
                      telemetry::JsonValue(ga.best.toString()));

    std::printf("\ngeomean normalized MPKI (LRU = 1.0):\n");
    for (size_t c = 0; c < r.columns.size(); ++c)
        std::printf("  %-10s %.4f\n", r.columns[c].c_str(),
                    r.geomeanNormalized(c, lru, false));
    note("expected shape: the evolved re-reference vector at least "
         "matches hand-designed SRRIP, confirming the IPV idea "
         "transfers to RRIP-style coarse recency");
    session.emit();
    return 0;
}
