/**
 * @file
 * The one strict parser for unsigned integers given on command lines
 * and in environment variables.
 *
 * Plain strtoul() accepts leading whitespace and a sign (so "-1" wraps
 * to the type's maximum), stops silently at trailing junk, and maps
 * "abc" to 0.  Every user-supplied count in the tools and bench
 * binaries goes through parseUnsigned() instead: the text must be one
 * or more base-10 digits and nothing else, and the value must lie in
 * the caller's [min, max] range.
 */

#ifndef CORD_SIM_PARSE_NUM_H
#define CORD_SIM_PARSE_NUM_H

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace cord
{

/** Result of parseUnsigned: the value, or why the text was rejected. */
struct ParsedUnsigned
{
    std::uint64_t value = 0;
    std::string error; //!< one-line message; empty on success

    explicit operator bool() const { return error.empty(); }
};

/**
 * Parse @p text as a base-10 unsigned integer in [@p min, @p max].
 * @param what the flag or variable name the message starts with
 *        (e.g. "--jobs", "CORD_SCALE")
 */
ParsedUnsigned parseUnsigned(
    std::string_view what, std::string_view text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

} // namespace cord

#endif // CORD_SIM_PARSE_NUM_H
