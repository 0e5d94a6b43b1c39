/**
 * @file
 * Unit tests for the strict unsigned-integer parser (sim/parse_num.h)
 * shared by cordsim, cordlint, cordstat and the bench binaries.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/parse_num.h"

namespace cord
{
namespace
{

constexpr std::uint64_t kMax64 = ~std::uint64_t{0};

struct Case
{
    const char *text;
    std::uint64_t min;
    std::uint64_t max;
    bool ok;
    std::uint64_t value; //!< checked only when ok
};

TEST(ParseUnsigned, AcceptsOnlyPlainDigitsInRange)
{
    const Case cases[] = {
        // Plain digits, including leading zeros.
        {"0", 0, kMax64, true, 0},
        {"42", 0, kMax64, true, 42},
        {"007", 0, kMax64, true, 7},
        // Empty input.
        {"", 0, kMax64, false, 0},
        // Signs: "-1" must not wrap to the maximum.
        {"-1", 0, kMax64, false, 0},
        {"+1", 0, kMax64, false, 0},
        {"-0", 0, kMax64, false, 0},
        // Whitespace, leading or trailing.
        {" 1", 0, kMax64, false, 0},
        {"\t1", 0, kMax64, false, 0},
        {"1 ", 0, kMax64, false, 0},
        // Trailing junk and non-numbers.
        {"12x", 0, kMax64, false, 0},
        {"abc", 0, kMax64, false, 0},
        {"0x10", 0, kMax64, false, 0},
        {"1.5", 0, kMax64, false, 0},
        {"1e3", 0, kMax64, false, 0},
        // 64-bit limits and overflow.
        {"18446744073709551615", 0, kMax64, true, kMax64},
        {"18446744073709551616", 0, kMax64, false, 0},
        {"99999999999999999999999", 0, kMax64, false, 0},
        // Caller bounds: min and max are inclusive.
        {"1", 1, 10, true, 1},
        {"10", 1, 10, true, 10},
        {"0", 1, 10, false, 0},
        {"11", 1, 10, false, 0},
        {"4294967295", 0, 4294967295u, true, 4294967295u},
        {"4294967296", 0, 4294967295u, false, 0},
        // A digit larger than a tiny max must not wrap the bound check.
        {"7", 0, 5, false, 0},
        {"5", 0, 5, true, 5},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string("text='") + c.text + "' min=" +
                     std::to_string(c.min) + " max=" +
                     std::to_string(c.max));
        const ParsedUnsigned r = parseUnsigned("--n", c.text, c.min, c.max);
        EXPECT_EQ(static_cast<bool>(r), c.ok) << r.error;
        if (c.ok)
            EXPECT_EQ(r.value, c.value);
        else
            EXPECT_NE(r.error.find("--n"), std::string::npos) << r.error;
    }
}

TEST(ParseUnsigned, MessageNamesTheBoundThatFailed)
{
    EXPECT_EQ(parseUnsigned("--repeat", "abc", 1).error,
              "--repeat expects an unsigned integer >= 1, got 'abc'");
    EXPECT_EQ(parseUnsigned("--jobs", "0", 1, 8).error,
              "--jobs must be at least 1, got '0'");
    EXPECT_EQ(parseUnsigned("--jobs", "9", 1, 8).error,
              "--jobs expects an unsigned integer in [1, 8], got '9'");
    EXPECT_EQ(parseUnsigned("CORD_SCALE", "9", 0, 8).error,
              "CORD_SCALE expects an unsigned integer <= 8, got '9'");
}

} // namespace
} // namespace cord
