/**
 * @file
 * Atomic durable file I/O and bounded retry.
 *
 * Every JSON artifact, trace cache file and checkpoint in the repo
 * used to be written in place, so a crash (or ENOSPC) mid-write left
 * a torn file behind.  writeFileAtomic() is the one write path that
 * replaces them all: serialize to a temp file in the target
 * directory, fsync it, rename() over the destination, then fsync the
 * directory — so readers observe either the complete old contents or
 * the complete new contents, never a prefix.  All syscalls route
 * through the FaultInjector (robust/fault_inject.hh) so tests can
 * prove the failure paths clean up after themselves.
 *
 * retryWithBackoff() is the companion policy for *transient* failures
 * (EINTR/EMFILE-style open storms): bounded attempts with
 * exponential, deterministically jittered backoff — the jitter comes
 * from a seeded Rng so tests replay the exact delay sequence.
 */

#ifndef GIPPR_ROBUST_ATOMIC_IO_HH_
#define GIPPR_ROBUST_ATOMIC_IO_HH_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/hot.hh"

namespace gippr::robust
{

/**
 * CRC-32 (IEEE 802.3 polynomial, as in zlib) of @p len bytes at
 * @p data, continuing from @p crc (pass 0 to start a new checksum).
 */
GIPPR_HOT uint32_t crc32(const void *data, size_t len,
                         uint32_t crc = 0);

/** Retry knobs for transient-failure paths. */
struct RetryPolicy
{
    /** Total attempts, including the first (>= 1). */
    unsigned attempts = 3;
    /**
     * Backoff before retry k (1-based) is
     * baseDelayMs * 2^(k-1) * u, u drawn uniformly from [0.5, 1.0)
     * by a Rng seeded with jitterSeed — deterministic per policy.
     */
    unsigned baseDelayMs = 10;
    uint64_t jitterSeed = 0x9e3779b97f4a7c15ULL;
    /**
     * Sleep hook (milliseconds); null means really sleep.  Tests
     * inject a collector to assert the jittered schedule without
     * waiting it out.
     */
    std::function<void(unsigned)> sleeper;
};

/**
 * Run @p op until it returns true or @p policy.attempts are
 * exhausted, backing off between attempts.  Returns whether @p op
 * eventually succeeded.
 */
bool retryWithBackoff(const RetryPolicy &policy,
                      const std::function<bool()> &op);

/**
 * The repo-wide default retry policy, used by readTrace()'s open: 3
 * attempts with a fixed 10 ms base delay.
 */
RetryPolicy defaultRetryPolicy();

/**
 * Durably replace the contents of @p path with @p payload via the
 * temp + fsync + rename + dir-fsync sequence.  On any failure the
 * temp file is unlinked and fatal() reports the failing step — the
 * destination is never left torn: it either keeps its old contents
 * or receives the new ones whole.
 */
void writeFileAtomic(const std::string &path, std::string_view payload);

/**
 * Read all of @p path into a string (fault-injector aware open);
 * fatal() on open/read failure.
 */
std::string readFileBytes(const std::string &path);

} // namespace gippr::robust

#endif // GIPPR_ROBUST_ATOMIC_IO_HH_
