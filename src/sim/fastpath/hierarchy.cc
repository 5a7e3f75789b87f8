/**
 * @file
 * Private L1/L2 cascade implementation.
 */

#include "sim/fastpath/hierarchy.hh"

#include <cstdint>
#include <limits>
#include <string>

#include "sim/fastpath/replay_spec.hh"
#include "util/log.hh"

namespace gippr
{

namespace
{

/** @p config, once it is a geometry the packed LRU model can run. */
const CacheConfig &
checkedLevel(const CacheConfig &config, const char *level)
{
    config.validate();
    if (!fastpath::SoaCacheModel::supports(fastpath::lruSpec(), config))
        fatal(std::string("Hierarchy: ") + level + " '" + config.name +
              "' is " + std::to_string(config.assoc) +
              "-way; the packed LRU supports 2 to 64 ways");
    return config;
}

} // namespace

Hierarchy::Level::Level(const CacheConfig &config, const char *level)
    : decode(checkedLevel(config, level)),
      model(fastpath::lruSpec(), config)
{
}

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : l1_(config.l1, "L1"), l2_(config.l2, "L2")
{
}

Trace
Hierarchy::filterToLlc(const Trace &cpu_trace,
                       const HierarchyConfig &config)
{
    Hierarchy hier(config);
    Trace llc_trace;
    uint64_t pending_gap = 0;

    for (size_t i = 0; i < cpu_trace.size(); ++i) {
        const MemRecord &rec = cpu_trace[i];
        pending_gap += rec.instGap;
        hier.access(rec, [&](uint64_t addr, AccessType type, uint64_t pc) {
            // The first record emitted after a run of filtered
            // references absorbs their accumulated gap.
            if (pending_gap > std::numeric_limits<uint32_t>::max())
                fatal("filterToLlc: instruction gap " +
                      std::to_string(pending_gap) + " at CPU record " +
                      std::to_string(i) +
                      " overflows the 32-bit MemRecord::instGap");
            MemRecord out;
            out.instGap = static_cast<uint32_t>(pending_gap);
            pending_gap = 0;
            out.addr = addr;
            out.pc = pc;
            out.isWrite = type != AccessType::Load;
            llc_trace.append(out);
            return false;
        });
    }

    return llc_trace;
}

} // namespace gippr
