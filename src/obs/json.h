/**
 * @file
 * Dependency-free JSON infrastructure for the observability layer.
 *
 * JsonWriter is a streaming emitter with deterministic formatting
 * (stable key order is the caller's responsibility; numbers are printed
 * with a fixed format), used by the event tracer, the metrics
 * snapshots, the run manifests and the --json table output.  JsonValue
 * is a small parsed DOM used by cordstat and the tests to read those
 * artifacts back.
 */

#ifndef CORD_OBS_JSON_H
#define CORD_OBS_JSON_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cord
{

/** Streaming JSON emitter (no intermediate DOM). */
class JsonWriter
{
  public:
    /** @param pretty two-space indentation when true (manifests);
     *         compact single-line output when false (trace events) */
    explicit JsonWriter(bool pretty = false) : pretty_(pretty) {}

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next value call is its value. */
    void key(std::string_view k);

    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    void value(bool b);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
    void value(double v);
    void null();

    /** key + value in one call. */
    template <typename T>
    void
    field(std::string_view k, T &&v)
    {
        key(k);
        value(std::forward<T>(v));
    }

    /** The document so far (valid once all scopes are closed). */
    const std::string &str() const { return out_; }

    /** Escape @p s as a quoted JSON string literal. */
    static std::string quote(std::string_view s);

  private:
    void separate(); //!< comma/newline bookkeeping before a new value
    void indent();

    std::string out_;
    std::vector<bool> firstInScope_;
    bool pretty_ = false;
    bool pendingKey_ = false;
};

/** A parsed JSON document node. */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Deepest array/object nesting parse() accepts.  Our artifacts
     *  nest a few levels; the bound keeps the recursive descent's
     *  stack use small on hostile input. */
    static constexpr unsigned kMaxDepth = 256;

    /**
     * Parse @p text.
     * @return the root value, or nullopt (with @p err set when given),
     *         also when arrays/objects nest deeper than kMaxDepth
     */
    static std::optional<JsonValue> parse(std::string_view text,
                                          std::string *err = nullptr);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return boolean_; }
    double asNumber() const { return number_; }
    const std::string &asString() const { return string_; }

    /** Array elements / object values (in document order). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object keys, parallel to items(). */
    const std::vector<std::string> &keys() const { return keys_; }

    std::size_t size() const { return items_.size(); }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** Convenience: member @p key as a string ("" when absent). */
    std::string str(std::string_view key) const;

    /** Convenience: member @p key as a number (@p dflt when absent). */
    double num(std::string_view key, double dflt = 0.0) const;

  private:
    friend struct JsonBuilder; //!< parser-side mutation access

    Kind kind_ = Kind::Null;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<std::string> keys_;  //!< object keys
    std::vector<JsonValue> items_;   //!< array elements / object values
};

} // namespace cord

#endif // CORD_OBS_JSON_H
