/**
 * @file
 * Environment knob parsing implementation.
 */

#include "util/env.hh"

#include <charconv>
#include <cstring>
#include <string>

#include "util/log.hh"

namespace gippr
{

uint64_t
parseEnvUnsigned(const char *name, const char *text, uint64_t max)
{
    const char *end = text + std::strlen(text);
    uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value > max) {
        fatal(std::string(name) + "='" + text +
              "' is not an unsigned integer in [0, " +
              std::to_string(max) + "]");
    }
    return value;
}

} // namespace gippr
