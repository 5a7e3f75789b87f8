/**
 * @file
 * GIPPR_HOT: the hot-kernel annotation.
 *
 * Marks the functions whose per-access cost IS the system's
 * throughput — the fastpath SoA kernels, including the shared-LLC
 * access path.  The macro does two jobs:
 *
 *  1. Compiler: expands to __attribute__((hot)) where supported, so
 *     the optimizer biases layout and inlining toward these paths.
 *  2. Analyzer: tools/analyze (gippr-analyze) treats every GIPPR_HOT
 *     function as a purity root — it and everything it transitively
 *     calls must be free of heap allocation, virtual dispatch,
 *     exceptions, locks, and I/O.  CI fails on violations, so a
 *     stray std::vector or mutex can no longer creep into a kernel
 *     unnoticed.
 *
 * Annotate the outermost per-access entry points (access, the batch
 * kernels, their helpers' annotations are optional — the analyzer
 * follows calls); do NOT annotate setup/teardown or stats paths,
 * which legitimately allocate.
 */

#ifndef GIPPR_UTIL_HOT_HH_
#define GIPPR_UTIL_HOT_HH_

#if defined(__GNUC__) || defined(__clang__)
#define GIPPR_HOT __attribute__((hot))
#else
#define GIPPR_HOT
#endif

#endif // GIPPR_UTIL_HOT_HH_
