/**
 * @file
 * Binary trace file format.
 *
 * Layout (little-endian):
 *   magic   "GPTR"            4 bytes
 *   version u32               3 (v1 and v2 files are rejected)
 *   count   u64               number of records
 *   records: per record
 *     instGap u32, addr u64, type u8 (0 load, 1 store, 2 writeback)
 *   crc     u32               CRC-32 of all prior bytes
 *
 * The format exists so that expensive synthetic traces (or externally
 * collected ones) can be cached on disk between experiment runs.
 * Writes are atomic (temp + fsync + rename, robust/atomic_io.hh) and
 * checksummed; reads verify size and checksum, and opens retry with
 * bounded jittered backoff on transient failures.
 *
 * readTrace() is the one reader: it loads the whole file into an
 * in-memory Trace, which every replay engine takes directly.
 */

#ifndef GIPPR_TRACE_TRACE_IO_HH_
#define GIPPR_TRACE_TRACE_IO_HH_

#include <string>

#include "trace/trace.hh"

namespace gippr
{

/**
 * Serialize @p trace to @p path atomically (the destination is never
 * torn); throws std::runtime_error on error.
 */
void writeTrace(const Trace &trace, const std::string &path);

/**
 * Load a trace from @p path; throws std::runtime_error on error.
 *
 * The header's record count is validated against the actual file size
 * before anything is read: truncated files, counts that overflow the
 * file, and trailing garbage are all rejected with messages naming
 * the path — a short read never yields a silently partial trace.  A
 * type byte outside AccessType is rejected too.
 */
Trace readTrace(const std::string &path);

} // namespace gippr

#endif // GIPPR_TRACE_TRACE_IO_HH_
