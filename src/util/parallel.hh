/**
 * @file
 * Shared worker-thread loop.
 *
 * The one parallelism scheme the repo uses everywhere (experiment
 * harness, GA population evaluation): a pool of threads pulling
 * indices off a shared atomic cursor.  Work items must be independent;
 * the body may be called concurrently from all workers.
 */

#ifndef GIPPR_UTIL_PARALLEL_HH_
#define GIPPR_UTIL_PARALLEL_HH_

#include <cstddef>
#include <functional>

namespace gippr
{

/**
 * Threads to actually use for @p requested.  0 means the CPUs in the
 * process's affinity mask (so taskset and cpusets are honoured),
 * falling back to std::thread::hardware_concurrency() and then to 4
 * when neither is known.
 */
unsigned resolveThreads(unsigned requested);

/**
 * Run @p body(i) for every i in [0, n), distributing indices over at
 * most @p threads workers (capped at n).  threads <= 1 runs inline.
 *
 * If a body throws, the first exception is captured, the remaining
 * work is cancelled (workers stop pulling new indices; in-flight
 * items finish), every worker is joined, and the exception is
 * rethrown on the calling thread — one failed worker can neither
 * hang the pool nor take down the process.
 */
void parallelFor(size_t n, unsigned threads,
                 const std::function<void(size_t)> &body);

} // namespace gippr

#endif // GIPPR_UTIL_PARALLEL_HH_
