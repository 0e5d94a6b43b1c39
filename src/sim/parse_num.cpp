#include "sim/parse_num.h"

namespace cord
{

ParsedUnsigned
parseUnsigned(std::string_view what, std::string_view text,
              std::uint64_t min, std::uint64_t max)
{
    ParsedUnsigned r;
    const std::string quoted = ", got '" + std::string(text) + "'";
    bool ok = !text.empty();
    for (const char c : text) {
        if (c < '0' || c > '9') {
            ok = false;
            break;
        }
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (digit > max || r.value > (max - digit) / 10) {
            ok = false; // above max (or beyond 64 bits)
            break;
        }
        r.value = r.value * 10 + digit;
    }
    if (ok) {
        if (r.value < min)
            r.error = std::string(what) + " must be at least " +
                      std::to_string(min) + quoted;
        return r;
    }
    const bool capped = max < std::numeric_limits<std::uint64_t>::max();
    std::string range;
    if (min > 0 && capped)
        range = " in [" + std::to_string(min) + ", " +
                std::to_string(max) + "]";
    else if (min > 0)
        range = " >= " + std::to_string(min);
    else if (capped)
        range = " <= " + std::to_string(max);
    r.error = std::string(what) + " expects an unsigned integer" + range +
              quoted;
    return r;
}

} // namespace cord
