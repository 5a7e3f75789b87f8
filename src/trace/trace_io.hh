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
 * Two readers share the format: readTrace() buffers everything into
 * an in-memory Trace, and MappedTrace maps the file read-only and
 * decodes records straight out of the page cache — zero heap copies,
 * with the CRC footer verified once at open.  TraceSource is the
 * cheap non-owning view over either that the replay engines consume.
 */

#ifndef GIPPR_TRACE_TRACE_IO_HH_
#define GIPPR_TRACE_TRACE_IO_HH_

#include <cstring>
#include <string>

#include "trace/trace.hh"

namespace gippr
{

/** On-disk bytes of one MemRecord: instGap, addr, pc, flags. */
constexpr size_t kGptrRecordBytes =
    sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint64_t) +
    sizeof(uint8_t);

/** Decode one packed on-disk record at @p p (unaligned, LE host). */
inline MemRecord
decodeGptrRecord(const unsigned char *p)
{
    MemRecord r;
    std::memcpy(&r.instGap, p, sizeof(uint32_t));
    std::memcpy(&r.addr, p + 4, sizeof(uint64_t));
    std::memcpy(&r.pc, p + 12, sizeof(uint64_t));
    r.isWrite = p[20] != 0;
    return r;
}

/**
 * A GPTR trace mapped read-only from disk.
 *
 * The whole file is validated at construction exactly like
 * readTrace() — magic, version (v1 and v2), record count vs file
 * size, and the v2 CRC-32 footer — but records are never copied to
 * the heap: operator[] decodes the packed 21-byte record straight
 * out of the mapping, so replaying N genomes streams the bytes from
 * the page cache instead of a duplicated std::vector.
 *
 * On platforms without mmap, or when GIPPR_TRACE_MMAP=0 (the knob
 * takes 0 or 1; anything else is fatal), the constructor
 * transparently falls back to the buffered loader; the observable
 * behaviour (including every rejection path) is identical.  Throws
 * std::runtime_error on any validation failure.
 */
class MappedTrace
{
  public:
    explicit MappedTrace(const std::string &path);
    ~MappedTrace();

    MappedTrace(MappedTrace &&other) noexcept;
    MappedTrace &operator=(MappedTrace &&other) noexcept;
    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    MemRecord
    operator[](size_t i) const
    {
        if (records_)
            return decodeGptrRecord(records_ + i * kGptrRecordBytes);
        return fallback_[i];
    }

    /** True when backed by a live mapping (false = buffered load). */
    bool mapped() const { return records_ != nullptr; }

    /** Packed record bytes inside the mapping; null when buffered. */
    const unsigned char *rawRecords() const { return records_; }

    /** The buffered trace when !mapped(); empty otherwise. */
    const Trace &fallbackTrace() const { return fallback_; }

  private:
    void unmap() noexcept;

    const unsigned char *records_ = nullptr;
    size_t count_ = 0;
    void *map_ = nullptr;
    size_t mapLen_ = 0;
    Trace fallback_;
};

/**
 * Non-owning view over any replayable record sequence — an in-memory
 * Trace or a MappedTrace.  Converts implicitly from either so engine
 * signatures accept both without touching call sites; operator[]
 * costs one predictable branch plus (for mapped sources) the packed
 * decode, both noise next to the per-record simulation work.
 */
class TraceSource
{
  public:
    /*implicit*/ TraceSource(const Trace &t)
        : mem_(t.records().data()), count_(t.size())
    {
    }

    /*implicit*/ TraceSource(const MappedTrace &t) : count_(t.size())
    {
        if (t.mapped())
            raw_ = t.rawRecords();
        else
            mem_ = t.fallbackTrace().records().data();
    }

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    MemRecord
    operator[](size_t i) const
    {
        if (mem_)
            return mem_[i];
        return decodeGptrRecord(raw_ + i * kGptrRecordBytes);
    }

  private:
    const MemRecord *mem_ = nullptr;
    const unsigned char *raw_ = nullptr;
    size_t count_ = 0;
};

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
