/**
 * @file
 * Canonical LLC trace replay.
 *
 * Every consumer of a filtered LLC trace (policy-under-test runs, the
 * GA fitness function, Belady MIN) must interpret records identically
 * or miss counts are not comparable.  Each record's type says how:
 * L2 writebacks (AccessType::Writeback) are not counted as demand;
 * all other records are demand loads/stores.
 */

#ifndef GIPPR_CACHE_REPLAY_HH_
#define GIPPR_CACHE_REPLAY_HH_

#include "cache/cache.hh"
#include "trace/record.hh"
#include "trace/trace.hh"

namespace gippr
{

/**
 * Replay @p trace against @p cache; statistics are cleared after the
 * first @p warmup records so only the measured region is counted.
 */
void replayTrace(SetAssocCache &cache, const Trace &trace,
                 size_t warmup = 0);

/**
 * Strip writeback records, keeping only the demand stream.
 *
 * Used by the trace-driven miss experiments: Belady's MIN is only a
 * valid lower bound when every policy replays the identical reference
 * string and allocates on every miss, and writeback allocations act
 * as accidental prefetches that break that premise.  Instruction gaps
 * of dropped records are folded into the next demand record so MPKI
 * denominators are preserved.
 */
Trace demandOnlyTrace(const Trace &trace);

} // namespace gippr

#endif // GIPPR_CACHE_REPLAY_HH_
