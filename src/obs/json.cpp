#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.h"

namespace cord
{

// ---------------------------------------------------------------------
// JsonWriter

std::string
JsonWriter::quote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

void
JsonWriter::indent()
{
    if (!pretty_)
        return;
    out_ += '\n';
    out_.append(2 * firstInScope_.size(), ' ');
}

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // the key already produced the separator
    }
    if (firstInScope_.empty())
        return;
    if (!firstInScope_.back())
        out_ += ',';
    firstInScope_.back() = false;
    indent();
}

void
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    firstInScope_.push_back(true);
}

void
JsonWriter::endObject()
{
    cord_assert(!firstInScope_.empty(), "endObject with no open scope");
    const bool empty = firstInScope_.back();
    firstInScope_.pop_back();
    if (!empty)
        indent();
    out_ += '}';
}

void
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    firstInScope_.push_back(true);
}

void
JsonWriter::endArray()
{
    cord_assert(!firstInScope_.empty(), "endArray with no open scope");
    const bool empty = firstInScope_.back();
    firstInScope_.pop_back();
    if (!empty)
        indent();
    out_ += ']';
}

void
JsonWriter::key(std::string_view k)
{
    separate();
    out_ += quote(k);
    out_ += pretty_ ? ": " : ":";
    pendingKey_ = true;
}

void
JsonWriter::value(std::string_view s)
{
    separate();
    out_ += quote(s);
}

void
JsonWriter::value(bool b)
{
    separate();
    out_ += b ? "true" : "false";
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
}

void
JsonWriter::value(std::int64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
}

void
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        out_ += "null";
        return;
    }
    // Integral doubles print without a fraction so that round-tripped
    // counters stay visually integral; everything else uses %.17g
    // (lossless and deterministic).
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    out_ += buf;
}

void
JsonWriter::null()
{
    separate();
    out_ += "null";
}

// ---------------------------------------------------------------------
// JsonValue parser (recursive descent)

/** Grants the parser write access to JsonValue's private state. */
struct JsonBuilder
{
    static void
    setBool(JsonValue &v, bool b)
    {
        v.kind_ = JsonValue::Kind::Bool;
        v.boolean_ = b;
    }

    static void
    setNumber(JsonValue &v, double n)
    {
        v.kind_ = JsonValue::Kind::Number;
        v.number_ = n;
    }

    static void
    setString(JsonValue &v, std::string s)
    {
        v.kind_ = JsonValue::Kind::String;
        v.string_ = std::move(s);
    }

    static void
    setArray(JsonValue &v)
    {
        v.kind_ = JsonValue::Kind::Array;
    }

    static void
    setObject(JsonValue &v)
    {
        v.kind_ = JsonValue::Kind::Object;
    }

    static std::vector<JsonValue> &items(JsonValue &v) { return v.items_; }
    static std::vector<std::string> &keys(JsonValue &v) { return v.keys_; }
};

namespace
{

struct Parser
{
    std::string_view text;
    std::size_t pos = 0;
    unsigned depth = 0; //!< open arrays/objects
    std::string err;

    bool
    fail(const char *msg)
    {
        if (err.empty())
            err = std::string(msg) + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return false;
        ++pos;
        return true;
    }

    char
    peek()
    {
        skipWs();
        return pos < text.size() ? text[pos] : '\0';
    }

    bool
    parseLiteral(std::string_view lit)
    {
        if (text.substr(pos, lit.size()) != lit)
            return fail("bad literal");
        pos += lit.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("truncated escape");
            char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode (BMP only; surrogate pairs do not
                // appear in our own artifacts).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        skipWs();
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' ||
                (pos > start && (text[pos] == '-' || text[pos] == '+') &&
                 (text[pos - 1] == 'e' || text[pos - 1] == 'E'))))
            ++pos;
        if (pos == start)
            return fail("expected number");
        const std::string num(text.substr(start, pos - start));
        char *end = nullptr;
        const double v = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size())
            return fail("malformed number");
        JsonBuilder::setNumber(out, v);
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        const char c = peek();
        if (c != '{' && c != '[')
            return parseScalar(c, out);
        if (depth == JsonValue::kMaxDepth)
            return fail("arrays/objects nested too deeply");
        ++depth;
        const bool ok = c == '{' ? parseObject(out) : parseArray(out);
        --depth;
        return ok;
    }

    bool
    parseObject(JsonValue &out)
    {
        consume('{');
        JsonBuilder::setObject(out);
        if (consume('}'))
            return true;
        for (;;) {
            std::string k;
            if (!parseString(k))
                return false;
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue v;
            if (!parseValue(v))
                return false;
            JsonBuilder::keys(out).push_back(std::move(k));
            JsonBuilder::items(out).push_back(std::move(v));
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        consume('[');
        JsonBuilder::setArray(out);
        if (consume(']'))
            return true;
        for (;;) {
            JsonValue v;
            if (!parseValue(v))
                return false;
            JsonBuilder::items(out).push_back(std::move(v));
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseScalar(char c, JsonValue &out)
    {
        switch (c) {
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            JsonBuilder::setString(out, std::move(s));
            return true;
          }
          case 't':
            if (!parseLiteral("true"))
                return false;
            JsonBuilder::setBool(out, true);
            return true;
          case 'f':
            if (!parseLiteral("false"))
                return false;
            JsonBuilder::setBool(out, false);
            return true;
          case 'n':
            if (!parseLiteral("null"))
                return false;
            out = JsonValue{};
            return true;
          default:
            return parseNumber(out);
        }
    }
};

} // namespace

std::optional<JsonValue>
JsonValue::parse(std::string_view text, std::string *err)
{
    Parser p;
    p.text = text;
    JsonValue root;
    if (!p.parseValue(root)) {
        if (err)
            *err = p.err;
        return std::nullopt;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "trailing garbage at offset " + std::to_string(p.pos);
        return std::nullopt;
    }
    return root;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (keys_[i] == key)
            return &items_[i];
    }
    return nullptr;
}

std::string
JsonValue::str(std::string_view key) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->asString() : std::string();
}

double
JsonValue::num(std::string_view key, double dflt) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->asNumber() : dflt;
}

} // namespace cord
