/**
 * @file
 * Strict parsing of unsigned integers from outside input: CLI flags,
 * mix and partition specs, and numeric GIPPR_* environment knobs.
 *
 * A value that is set but malformed must fail loudly: strtoul-style
 * parsing silently turns "abc" into 0, "100k" into 100 and "-1" into
 * 2^64 - 1.  Callers keep their own getenv (the audited config-knob
 * sites) or argv handling and hand the text here.
 */

#ifndef GIPPR_UTIL_ENV_HH_
#define GIPPR_UTIL_ENV_HH_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace gippr
{

/**
 * Parse @p text as a base-10 unsigned integer no larger than @p max;
 * @p what names the input (a flag, a spec field or an environment
 * variable).  fatal() with a message naming @p what and the value on
 * an empty, non-numeric, signed, out-of-range or trailing-garbage
 * value.
 */
uint64_t parseUnsigned(
    const std::string &what, std::string_view text,
    uint64_t max = std::numeric_limits<uint64_t>::max());

} // namespace gippr

#endif // GIPPR_UTIL_ENV_HH_
