/**
 * @file
 * Private L1/L2 cascade implementation.
 */

#include "sim/fastpath/hierarchy.hh"

#include <cstdint>
#include <string>

#include "util/log.hh"

namespace gippr
{

namespace
{

/** @p config, once it is a geometry a Level can run. */
const CacheConfig &
checkedLevel(const CacheConfig &config, const char *level)
{
    config.validate();
    if (config.assoc < 2 || config.assoc > 64)
        fatal(std::string("Hierarchy: ") + level + " '" + config.name +
              "' is " + std::to_string(config.assoc) +
              "-way; the packed LRU supports 2 to 64 ways");
    return config;
}

} // namespace

Hierarchy::Level::Level(const CacheConfig &config, const char *level)
    : decode_(checkedLevel(config, level)), assoc_(config.assoc),
      rows_(config.sets() * config.assoc, 0)
{
}

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : l1_(config.l1, "L1"), l2_(config.l2, "L2")
{
}

void
LlcRecorder::overflow(uint64_t gap) const
{
    fatal("LLC filter: instruction gap " + std::to_string(gap) +
          " at CPU record " + std::to_string(cpuRecords_ - 1) +
          " overflows the 32-bit MemRecord::instGap");
}

Trace
Hierarchy::filterToLlc(const Trace &cpu_trace,
                       const HierarchyConfig &config)
{
    Hierarchy hier(config);
    Trace llc_trace;
    LlcRecorder record(llc_trace, /*keep_writebacks=*/true);
    for (const MemRecord &rec : cpu_trace) {
        record.addGap(rec.instGap);
        hier.access(rec, record);
    }
    return llc_trace;
}

} // namespace gippr
