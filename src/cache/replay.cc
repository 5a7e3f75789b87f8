/**
 * @file
 * LLC trace replay implementation.
 */

#include "cache/replay.hh"

#include <cstdint>
#include <limits>
#include <string>

#include "util/check.hh"
#include "util/log.hh"

namespace gippr
{

void
replayTrace(SetAssocCache &cache, const Trace &trace, size_t warmup)
{
    GIPPR_CHECK(warmup <= trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        if (i == warmup)
            cache.clearStats();
        const MemRecord &r = trace[i];
        cache.access(r.addr, r.type);
    }
    // A warmup covering the whole trace leaves nothing measured.
    if (warmup == trace.size())
        cache.clearStats();
}

Trace
demandOnlyTrace(const Trace &trace)
{
    Trace out;
    out.reserve(trace.size());
    uint64_t pending_gap = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        const MemRecord &r = trace[i];
        pending_gap += r.instGap;
        if (r.type == AccessType::Writeback)
            continue;
        if (pending_gap > std::numeric_limits<uint32_t>::max())
            fatal("demandOnlyTrace: instruction gap " +
                  std::to_string(pending_gap) + " at LLC record " +
                  std::to_string(i) +
                  " overflows the 32-bit MemRecord::instGap");
        MemRecord d = r;
        d.instGap = static_cast<uint32_t>(pending_gap);
        pending_gap = 0;
        out.append(d);
    }
    return out;
}

} // namespace gippr
