/**
 * @file
 * Binary trace file reader/writer.
 */

#include "trace/trace_io.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "robust/atomic_io.hh"
#include "robust/fault_inject.hh"
#include "util/log.hh"

namespace gippr
{

namespace
{

constexpr char kMagic[4] = {'G', 'P', 'T', 'R'};
/** The one version read and written (trace_io.hh). */
constexpr uint32_t kVersion = 3;

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/** Errno values worth retrying a failed open for. */
bool
transientOpenError(int err)
{
    return err == EINTR || err == EAGAIN || err == EMFILE ||
           err == ENFILE || err == EIO;
}

/**
 * fopen(path, "rb") with bounded, jittered retry on transient
 * failures (fault-injector aware, so tests can script the Nth open
 * failing).
 * Permanent errors (ENOENT, EACCES, ...) return immediately.
 */
FilePtr
openWithRetry(const std::string &path)
{
    std::FILE *f = nullptr;
    const robust::RetryPolicy policy = robust::defaultRetryPolicy();
    robust::retryWithBackoff(policy, [&]() {
        if (robust::FaultInjector::instance().check(
                robust::FaultOp::Open) != robust::FaultKind::None) {
            errno = EIO;
            return false; // injected failures count as transient
        }
        f = std::fopen(path.c_str(), "rb");
        return f != nullptr || !transientOpenError(errno);
    });
    return FilePtr(f);
}

template <typename T>
void
appendScalar(std::string &buf, T v)
{
    buf.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

/**
 * fread with read-side fault injection: an armed read=N fault makes
 * the Nth call report a short read, so the trace reader's truncation
 * and I/O-error paths get the same scripted coverage as the writers.
 */
size_t
fiFread(void *out, size_t size, size_t count, std::FILE *f)
{
    if (robust::FaultInjector::instance().check(
            robust::FaultOp::Read) != robust::FaultKind::None) {
        errno = EIO;
        return 0;
    }
    return std::fread(out, size, count, f);
}

/**
 * fread @p count bytes into @p out, folding them into @p crc.  The
 * running checksum lets the reader verify the footer without
 * buffering the whole file.
 */
template <typename T>
T
readScalar(std::FILE *f, uint32_t &crc, const std::string &path,
           const std::string &what)
{
    T v;
    if (fiFread(&v, sizeof(T), 1, f) != 1)
        fatal("trace file truncated reading " + what + ": " + path);
    crc = robust::crc32(&v, sizeof(T), crc);
    return v;
}

/** On-disk bytes of one MemRecord: instGap, addr, type
 *  (fields are written unpadded). */
constexpr uint64_t kRecordBytes =
    sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint8_t);

/** CRC-32 footer bytes. */
constexpr uint64_t kFooterBytes = sizeof(uint32_t);

/** Header bytes: magic + version + record count. */
constexpr uint64_t kHeaderBytes =
    4 + sizeof(uint32_t) + sizeof(uint64_t);

/** Size of @p f in bytes (position is restored). */
uint64_t
fileSize(std::FILE *f, const std::string &path)
{
    long pos = std::ftell(f);
    if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0)
        fatal("cannot determine size of trace file: " + path);
    long end = std::ftell(f);
    if (end < 0 || std::fseek(f, pos, SEEK_SET) != 0)
        fatal("cannot determine size of trace file: " + path);
    return static_cast<uint64_t>(end);
}

} // namespace

void
writeTrace(const Trace &trace, const std::string &path)
{
    // Serialize into memory, checksum, then atomically replace the
    // destination: a crash or ENOSPC mid-write leaves either the old
    // file or the complete new one, never a torn trace.
    std::string buf;
    buf.reserve(kHeaderBytes + trace.size() * kRecordBytes + kFooterBytes);
    buf.append(kMagic, 4);
    appendScalar<uint32_t>(buf, kVersion);
    appendScalar<uint64_t>(buf, trace.size());
    for (const auto &r : trace.records()) {
        appendScalar<uint32_t>(buf, r.instGap);
        appendScalar<uint64_t>(buf, r.addr);
        appendScalar<uint8_t>(buf, static_cast<uint8_t>(r.type));
    }
    appendScalar<uint32_t>(
        buf, robust::crc32(buf.data(), buf.size()));
    robust::writeFileAtomic(path, buf);
}

Trace
readTrace(const std::string &path)
{
    FilePtr f = openWithRetry(path);
    if (!f)
        fatal("cannot open trace file for reading: " + path);
    uint32_t crc = 0;
    char magic[4];
    if (fiFread(magic, 1, 4, f.get()) != 4 ||
        std::memcmp(magic, kMagic, 4) != 0) {
        fatal("not a GPTR trace file: " + path);
    }
    crc = robust::crc32(magic, 4, crc);
    uint32_t version =
        readScalar<uint32_t>(f.get(), crc, path, "version");
    if (version != kVersion)
        fatal("unsupported trace version " + std::to_string(version) +
              " (only v" + std::to_string(kVersion) + " is read) in " +
              path);
    uint64_t count =
        readScalar<uint64_t>(f.get(), crc, path, "record count");

    // Validate the promised record count against the actual file size
    // before reserving or reading anything: a corrupt header must not
    // drive a multi-gigabyte allocation or a silently partial trace.
    if (count >
        (UINT64_MAX - kHeaderBytes - kFooterBytes) / kRecordBytes)
        fatal("trace file header corrupt: record count " +
              std::to_string(count) + " overflows the file size: " +
              path);
    uint64_t expected =
        kHeaderBytes + count * kRecordBytes + kFooterBytes;
    uint64_t actual = fileSize(f.get(), path);
    if (actual < expected)
        fatal("trace file truncated: header promises " +
              std::to_string(count) + " records (" +
              std::to_string(expected) + " bytes) but " + path +
              " is only " + std::to_string(actual) + " bytes");
    if (actual > expected)
        fatal("trace file corrupt: " + std::to_string(actual - expected) +
              " trailing bytes after " + std::to_string(count) +
              " records: " + path);

    Trace trace;
    trace.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        MemRecord r;
        // Size was validated above, so a short read here is an I/O
        // error, not routine truncation.
        r.instGap =
            readScalar<uint32_t>(f.get(), crc, path, "record");
        r.addr = readScalar<uint64_t>(f.get(), crc, path, "record");
        const uint8_t type =
            readScalar<uint8_t>(f.get(), crc, path, "record");
        if (type > static_cast<uint8_t>(AccessType::Writeback))
            fatal("trace file corrupt: record " + std::to_string(i) +
                  " has type byte " + std::to_string(type) +
                  " (0 load, 1 store, 2 writeback): " + path);
        r.type = static_cast<AccessType>(type);
        trace.append(r);
    }
    const uint32_t body_crc = crc;
    uint32_t stored = 0;
    if (fiFread(&stored, sizeof(stored), 1, f.get()) != 1)
        fatal("trace file truncated reading checksum: " + path);
    if (stored != body_crc)
        fatal("trace file checksum mismatch (corrupt contents): " + path);
    return trace;
}

} // namespace gippr
