/**
 * @file
 * Extension: DGIPPR combined with dueled cache bypass (paper Section
 * 7, future-work item 1).
 *
 * Compares GIPPR against B-GIPPR (the same vector plus a set-dueled
 * bimodal bypass side) on the suite's miss counts, and reports how
 * often the bypass side wins and how much traffic it skips.
 */

#include <cstdio>

#include "cache/replay.hh"
#include "common.hh"
#include "core/bypass_gippr.hh"
#include "core/vectors.hh"

using namespace gippr;
using namespace gippr::bench;

int
main(int argc, char **argv)
{
    Session session(argc, argv, "ext_bypass");
    Scale scale = resolveScale();
    banner("ext_bypass: set-dueled bypass on top of GIPPR",
           "Section 7, future-work item 1");

    SyntheticSuite suite(suiteParams(scale));
    ExperimentConfig cfg = session.experimentConfig(scale);

    std::vector<PolicyDef> policies = {
        policyByName("LRU"),
        gipprDef("GIPPR", local_vectors::gippr()),
        bypassGipprDef("B-GIPPR", local_vectors::gippr()),
        dgipprDef("4-DGIPPR", local_vectors::dgippr4()),
    };
    session.recordPolicies(policies);
    ExperimentResult r = runMissExperiment(suite, policies, cfg);
    size_t lru = r.columnIndex("LRU");
    Table table = r.toNormalizedTable(lru, false, std::nullopt);
    emitTable(table, "ext_bypass");
    session.addResult("ext_bypass", r);

    std::printf("\ngeomean normalized MPKI (LRU = 1.0):\n");
    for (size_t c = 0; c < r.columns.size(); ++c)
        std::printf("  %-10s %.4f\n", r.columns[c].c_str(),
                    r.geomeanNormalized(c, lru, false));

    // Bypass behaviour on two archetypes, on the first simpoint's
    // demand trace that the experiment above already filtered.
    SystemParams sys = systemParams();
    for (const char *name : {"hotcold_stream", "loop_fit"}) {
        const auto entries =
            session.traceCache().get(suite.spec(name), sys.hier, nullptr);
        const Trace &llc = *entries->front().demandTrace;
        auto policy = std::make_unique<BypassGipprPolicy>(
            sys.hier.llc, local_vectors::gippr());
        BypassGipprPolicy *raw = policy.get();
        SetAssocCache cache(sys.hier.llc, std::move(policy));
        replayTrace(cache, llc, llc.size() / 3);
        std::printf("\n%-16s bypassed %lu of %lu accesses; follower "
                    "side: %s\n",
                    name,
                    static_cast<unsigned long>(cache.stats().bypasses),
                    static_cast<unsigned long>(
                        cache.stats().demandAccesses),
                    raw->followersBypass() ? "bypass" : "insert");
    }
    note("observed shape (an honest negative result): with a "
         "PLRU-insertion vector the churn slot already confines "
         "pollution to 1/16 of each set, so full bypass has little "
         "left to save and its leader sets cost a little — consistent "
         "with the paper leaving bypass as future work rather than a "
         "headline result");
    session.emit();
    return 0;
}
