/**
 * @file
 * Cache replacement championship — a JWAC-style leaderboard.
 *
 * Runs every built-in policy over the full synthetic suite (the way
 * the JILP Cache Replacement Championship that hosted the paper's
 * infrastructure ranked entries) and prints a leaderboard ordered by
 * geometric-mean normalized MPKI, annotated with each policy's
 * storage budget — the paper's two axes, performance and cost, side
 * by side.
 *
 * Usage:
 *   ./build/examples/championship [accesses_per_simpoint]
 */

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/vectors.hh"
#include "sim/experiment.hh"
#include "util/env.hh"

using namespace gippr;

int
main(int argc, char **argv)
{
    SuiteParams sp;
    sp.llcBlocks = 16384;
    sp.accessesPerSimpoint =
        argc > 1 ? parseUnsigned("accesses_per_simpoint", argv[1])
                 : 200000;
    SyntheticSuite suite(sp);

    ExperimentConfig cfg;
    cfg.system.hier.llc = CacheConfig::benchLlc();
    cfg.includeMin = true;

    std::vector<PolicyDef> policies = {
        policyByName("LRU"),     policyByName("PLRU"),
        policyByName("FIFO"),    policyByName("Random"),
        policyByName("DIP"),     policyByName("SRRIP"),
        policyByName("BRRIP"),   policyByName("DRRIP"),
        policyByName("PDP"),
        gipprDef("GIPPR", local_vectors::gippr()),
        dgipprDef("2-DGIPPR", local_vectors::dgippr2()),
        dgipprDef("4-DGIPPR", local_vectors::dgippr4()),
        policyByName("RRIPIPV"),
    };

    std::printf("running %zu policies x %zu workloads "
                "(%lu accesses/simpoint)...\n",
                policies.size(), suite.specs().size(),
                static_cast<unsigned long>(sp.accessesPerSimpoint));
    ExperimentResult r = runMissExperiment(suite, policies, cfg);
    size_t lru = r.columnIndex("LRU");

    struct Row
    {
        std::string name;
        double geomean;
        size_t bits_per_set;
        size_t global_bits;
    };
    std::vector<Row> rows;
    for (size_t c = 0; c < r.columns.size(); ++c) {
        Row row;
        row.name = r.columns[c];
        row.geomean = r.geomeanNormalized(c, lru, false);
        if (row.name == "MIN") {
            row.bits_per_set = 0;
            row.global_bits = 0;
        } else {
            auto p = policies[c].make(cfg.system.hier.llc);
            row.bits_per_set = p->stateBitsPerSet();
            row.global_bits = p->globalStateBits();
        }
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  return a.geomean < b.geomean;
              });

    Table board({"rank", "policy", "geomean MPKI vs LRU", "bits/set",
                 "global bits"});
    int rank = 0;
    for (const Row &row : rows) {
        board.newRow()
            .add(row.name == "MIN" ? std::string("-")
                                   : std::to_string(++rank))
            .add(row.name)
            .add(row.geomean, 4)
            .add(static_cast<uint64_t>(row.bits_per_set))
            .add(static_cast<uint64_t>(row.global_bits));
    }
    std::printf("\n=== leaderboard (lower is better; MIN is the "
                "offline bound) ===\n");
    std::ostringstream os;
    board.print(os);
    std::fputs(os.str().c_str(), stdout);
    std::printf("\nthe paper's claim to check: the DGIPPR rows should "
                "sit among the best policies while paying the fewest "
                "bits per set.\n");
    return 0;
}
