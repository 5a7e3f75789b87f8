/**
 * @file
 * Strict parsing of numeric GIPPR_* environment knobs.
 *
 * A knob that is set but malformed must fail loudly: strtoul-style
 * parsing silently turns "abc" into 0, which changes the I/O retry
 * pacing without a word.  Callers keep their own
 * getenv (the audited config-knob sites) and hand the value here.
 */

#ifndef GIPPR_UTIL_ENV_HH_
#define GIPPR_UTIL_ENV_HH_

#include <cstdint>
#include <limits>

namespace gippr
{

/**
 * Parse @p text, the value of environment variable @p name, as a
 * base-10 unsigned integer no larger than @p max.  fatal() with a
 * message naming the variable and the value on an empty,
 * non-numeric, signed, out-of-range or trailing-garbage value.
 */
uint64_t parseEnvUnsigned(
    const char *name, const char *text,
    uint64_t max = std::numeric_limits<uint64_t>::max());

} // namespace gippr

#endif // GIPPR_UTIL_ENV_HH_
