/**
 * @file
 * Strict unsigned parsing implementation.
 */

#include "util/env.hh"

#include <charconv>

#include "util/log.hh"

namespace gippr
{

uint64_t
parseUnsigned(const std::string &what, std::string_view text,
              uint64_t max)
{
    const char *end = text.data() + text.size();
    uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value > max) {
        fatal(what + "='" + std::string(text) +
              "' is not an unsigned integer in [0, " +
              std::to_string(max) + "]");
    }
    return value;
}

} // namespace gippr
