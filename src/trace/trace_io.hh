/**
 * @file
 * Binary trace file format.
 *
 * Layout (little-endian):
 *   magic   "GPTR"            4 bytes
 *   version u32               currently 2 (v1 still readable)
 *   count   u64               number of records
 *   records: per record
 *     instGap u32, addr u64, pc u64, flags u8 (bit0 = write)
 *   crc     u32               v2 only: CRC-32 of all prior bytes
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
 * the path — a short read never yields a silently partial trace.
 */
Trace readTrace(const std::string &path);

} // namespace gippr

#endif // GIPPR_TRACE_TRACE_IO_HH_
