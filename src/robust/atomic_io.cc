/**
 * @file
 * Atomic durable I/O implementation.
 */

#include "robust/atomic_io.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "robust/fault_inject.hh"
#include "util/log.hh"
#include "util/rng.hh"

namespace gippr::robust
{

namespace
{

/** Lazily built CRC-32 lookup table (IEEE 802.3, reflected). */
const uint32_t *
crcTable()
{
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table.data();
}

/** errno as text, for error messages. */
std::string
errnoText()
{
    return std::strerror(errno);
}

/** open(2) with fault injection. */
int
fiOpen(const std::string &path, int flags, mode_t mode)
{
    if (FaultInjector::instance().check(FaultOp::Open) !=
        FaultKind::None) {
        errno = EIO;
        return -1;
    }
    return ::open(path.c_str(), flags, mode);
}

/**
 * Write all of @p n bytes to @p fd, honouring injected write faults
 * (outright failure, ENOSPC, torn half-write).  Returns false with
 * errno set on failure.
 */
bool
fiWriteAll(int fd, const char *data, size_t n)
{
    size_t off = 0;
    while (off < n) {
        size_t chunk = n - off;
        const FaultKind fault =
            FaultInjector::instance().check(FaultOp::Write);
        if (fault == FaultKind::Fail) {
            errno = EIO;
            return false;
        }
        if (fault == FaultKind::Enospc) {
            errno = ENOSPC;
            return false;
        }
        if (fault == FaultKind::ShortWrite) {
            // Persist half the remaining payload, then report
            // failure: the torn-write scenario atomic replacement
            // must mask.
            chunk = chunk / 2;
            if (chunk > 0)
                (void)::write(fd, data + off, chunk);
            errno = EIO;
            return false;
        }
        const ssize_t wrote = ::write(fd, data + off, chunk);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(wrote);
    }
    return true;
}

bool
fiFsync(int fd)
{
    if (FaultInjector::instance().check(FaultOp::Fsync) !=
        FaultKind::None) {
        errno = EIO;
        return false;
    }
    return ::fsync(fd) == 0;
}

bool
fiClose(int fd)
{
    if (FaultInjector::instance().check(FaultOp::Close) !=
        FaultKind::None) {
        (void)::close(fd);
        errno = EIO;
        return false;
    }
    return ::close(fd) == 0;
}

bool
fiRename(const std::string &from, const std::string &to)
{
    if (FaultInjector::instance().check(FaultOp::Rename) !=
        FaultKind::None) {
        errno = EIO;
        return false;
    }
    return std::rename(from.c_str(), to.c_str()) == 0;
}

/** Directory part of @p path ("." when there is none). */
std::string
dirnameOf(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

/**
 * fsync the directory containing @p path so the rename itself is
 * durable.  Best-effort: some filesystems refuse O_RDONLY directory
 * fsync; that weakens durability, not atomicity, so it only warns.
 */
void
syncParentDir(const std::string &path)
{
    const int fd =
        ::open(dirnameOf(path).c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    if (::fsync(fd) != 0)
        warn("fsync of directory for " + path + " failed: " +
             errnoText());
    (void)::close(fd);
}

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t crc)
{
    const uint32_t *table = crcTable();
    const auto *bytes = static_cast<const unsigned char *>(data);
    uint32_t c = crc ^ 0xffffffffu;
    for (size_t i = 0; i < len; ++i)
        c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

bool
retryWithBackoff(const RetryPolicy &policy,
                 const std::function<bool()> &op)
{
    Rng jitter(policy.jitterSeed);
    const unsigned attempts = policy.attempts > 0 ? policy.attempts : 1;
    for (unsigned attempt = 1;; ++attempt) {
        if (op())
            return true;
        if (attempt >= attempts)
            return false;
        const double scale = 0.5 + jitter.nextDouble() / 2.0;
        // Clamp the exponent so the shift cannot overflow when a
        // policy asks for more than 32 attempts.
        const unsigned exponent = std::min(attempt - 1, 31u);
        // Saturate before converting: a double past UINT_MAX has no
        // unsigned value (the conversion is undefined).
        const double want = static_cast<double>(policy.baseDelayMs) *
                            static_cast<double>(1ull << exponent) *
                            scale;
        constexpr double kMaxDelay =
            static_cast<double>(std::numeric_limits<unsigned>::max());
        const unsigned delay = want >= kMaxDelay
                                   ? std::numeric_limits<unsigned>::max()
                                   : static_cast<unsigned>(want);
        if (policy.sleeper)
            policy.sleeper(delay);
        else if (delay > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
    }
}

RetryPolicy
defaultRetryPolicy()
{
    return RetryPolicy{};
}

void
writeFileAtomic(const std::string &path, std::string_view payload)
{
    // The temp name carries the pid so concurrent writers of
    // *different* runs never collide; the final rename is what
    // publishes.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd =
        fiOpen(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        fatal("cannot open temp file for atomic write of " + path +
              ": " + errnoText());

    auto fail = [&](const std::string &step) {
        const std::string err = errnoText();
        (void)::close(fd);
        (void)::unlink(tmp.c_str());
        fatal(step + " failed during atomic write of " + path + ": " +
              err);
    };
    if (!fiWriteAll(fd, payload.data(), payload.size()))
        fail("write");
    if (!fiFsync(fd))
        fail("fsync");
    if (!fiClose(fd)) {
        const std::string err = errnoText();
        (void)::unlink(tmp.c_str());
        fatal("close failed during atomic write of " + path + ": " +
              err);
    }
    if (!fiRename(tmp, path)) {
        const std::string err = errnoText();
        (void)::unlink(tmp.c_str());
        fatal("rename failed during atomic write of " + path + ": " +
              err);
    }
    syncParentDir(path);
}

std::string
readFileBytes(const std::string &path)
{
    // Open and read both route through the fault injector so the CI
    // read-side sweep can fail either.
    const int fd = fiOpen(path, O_RDONLY, 0);
    if (fd < 0)
        fatal("cannot open " + path + " for reading: " + errnoText());
    std::string bytes;
    char buf[1 << 16];
    for (;;) {
        if (FaultInjector::instance().check(FaultOp::Read) !=
            FaultKind::None) {
            (void)::close(fd);
            fatal("read of " + path + " failed: " + std::strerror(EIO));
        }
        const ssize_t got = ::read(fd, buf, sizeof(buf));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            const std::string err = errnoText();
            (void)::close(fd);
            fatal("read of " + path + " failed: " + err);
        }
        if (got == 0)
            break;
        bytes.append(buf, static_cast<size_t>(got));
    }
    (void)::close(fd);
    return bytes;
}

} // namespace gippr::robust
