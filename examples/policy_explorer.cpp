/**
 * @file
 * Compare replacement policies on a chosen workload — a small
 * interactive front-end to the full simulation stack.
 *
 * Usage:
 *   ./build/examples/policy_explorer [workload] [policy ...]
 *
 * With no arguments, runs the LRU-hostile "loop_thrash" against the
 * standard contenders.  Policies accept the same names as the policy
 * zoo, including inline vectors such as
 *   "GIPPR:0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13".
 *
 * Example:
 *   ./build/examples/policy_explorer zipf_hot LRU DRRIP DGIPPR4
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "util/log.hh"

using namespace gippr;

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "loop_thrash";
    std::vector<std::string> policy_names;
    for (int i = 2; i < argc; ++i)
        policy_names.push_back(argv[i]);
    if (policy_names.empty()) {
        policy_names = {"LRU", "PLRU",    "DIP",    "DRRIP",
                        "PDP", "DGIPPR2", "DGIPPR4"};
    }

    SuiteParams sp;
    sp.llcBlocks = 16384;
    sp.accessesPerSimpoint = 400000;
    SyntheticSuite suite(sp);

    SystemParams sys;
    sys.hier.llc = CacheConfig::benchLlc();

    std::printf("available workloads:");
    for (const auto &n : suite.names())
        std::printf(" %s", n.c_str());
    std::printf("\n\nsimulating '%s' (%lu CPU references per "
                "simpoint)...\n\n",
                workload.c_str(),
                static_cast<unsigned long>(sp.accessesPerSimpoint));

    Workload w;
    try {
        w = SyntheticSuite::materialize(suite.spec(workload));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    Table table({"policy", "IPC", "speedup vs LRU", "LLC MPKI",
                 "state bits/set"});
    double lru_ipc = 0.0;
    for (const std::string &name : policy_names) {
        PolicyDef def = policyByName(name);
        SimResult r = simulateWorkload(w, def.make, sys);
        if (lru_ipc == 0.0)
            lru_ipc = r.ipc; // first policy is the baseline
        auto policy = def.make(sys.hier.llc);
        table.newRow()
            .add(def.name)
            .add(r.ipc, 4)
            .add(lru_ipc > 0 ? r.ipc / lru_ipc : 1.0, 4)
            .add(r.llcMpki, 3)
            .add(static_cast<uint64_t>(policy->stateBitsPerSet()));
        std::printf("  %s done\n", def.name.c_str());
    }
    std::printf("\n");
    std::ostringstream os;
    table.print(os);
    std::fputs(os.str().c_str(), stdout);
    std::printf("\n(speedup is relative to the first policy listed)\n");
    return 0;
}
