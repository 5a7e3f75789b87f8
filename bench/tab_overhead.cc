/**
 * @file
 * Storage-overhead table (Sections 3.6 and 5.1).
 *
 * The paper's cost argument at a 4MB, 16-way, 64B-line LLC:
 *   LRU        4 bits/block  (64 bits/set,  32 KB total)
 *   DRRIP      2 bits/block  (32 bits/set,  16 KB total) + 1 PSEL
 *   PDP        4 bits/block  (           ~  32 KB) + microcontroller
 *   PLRU      15 bits/set    (< 0.94 bits/block, ~7 KB)
 *   GIPPR     15 bits/set    (same as PLRU)
 *   2-DGIPPR  15 bits/set    + one 11-bit counter
 *   4-DGIPPR  15 bits/set    + three 11-bit counters (33 bits/LLC)
 */

#include <cstdio>

#include "common.hh"
#include "core/vectors.hh"

using namespace gippr;
using namespace gippr::bench;

int
main(int argc, char **argv)
{
    Session session(argc, argv, "tab_overhead");
    banner("tab_overhead: replacement-state storage comparison",
           "Sections 3.6 and 5.1 (storage discussion)");

    CacheConfig llc = CacheConfig::paperLlc();
    session.setConfig("llc", toJson(llc));
    const double sets = static_cast<double>(llc.sets());
    const double blocks = sets * llc.assoc;

    std::vector<PolicyDef> policies = {
        policyByName("Random"),
        policyByName("FIFO"),
        policyByName("PLRU"),
        policyByName("LRU"),
        policyByName("DIP"),
        policyByName("SRRIP"),
        policyByName("DRRIP"),
        policyByName("PDP"),
        gipprDef("GIPPR", local_vectors::gippr()),
        dgipprDef("2-DGIPPR", local_vectors::dgippr2()),
        dgipprDef("4-DGIPPR", local_vectors::dgippr4()),
    };

    Table table({"policy", "bits/set", "bits/block", "KB per 4MB LLC",
                 "global bits"});
    for (const auto &def : policies) {
        auto p = def.make(llc);
        double per_set = static_cast<double>(p->stateBitsPerSet());
        double total_kb = per_set * sets / 8.0 / 1024.0;
        table.newRow()
            .add(def.name)
            .add(static_cast<uint64_t>(p->stateBitsPerSet()))
            .add(per_set * sets / blocks, 3)
            .add(total_kb, 2)
            .add(static_cast<uint64_t>(p->globalStateBits()));
    }
    emitTable(table, "tab_overhead");
    session.recordPolicies(policies);
    session.addTable("tab_overhead", "bits", table);

    note("paper shape: GIPPR/DGIPPR cost exactly PLRU (15 bits/set, "
         "under one bit per block, ~7KB) versus 32KB for LRU/DIP, "
         "16KB for DRRIP, 32KB+microcontroller for PDP; DGIPPR's "
         "dueling counters add only 11-33 bits to the whole chip");
    session.emit();
    return 0;
}
