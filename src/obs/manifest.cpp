#include "obs/manifest.h"

#include <cstdio>
#include <ctime>

#include "obs/build_info.h"
#include "obs/json.h"
#include "sim/logging.h"

namespace cord
{

void
writeTableJson(JsonWriter &w, const std::string &title,
               const std::vector<std::string> &headers,
               const std::vector<std::vector<std::string>> &rows)
{
    w.beginObject();
    w.field("title", title);
    w.key("headers");
    w.beginArray();
    for (const std::string &h : headers)
        w.value(h);
    w.endArray();
    w.key("rows");
    w.beginArray();
    for (const auto &row : rows) {
        w.beginArray();
        for (const std::string &cell : row)
            w.value(cell);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

void
RunManifest::stampTime()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    timestamp = buf;
}

std::string
RunManifest::renderJson(bool includeVolatile) const
{
    JsonWriter w(/*pretty=*/true);
    w.beginObject();
    w.field("schema", kManifestSchema);
    w.field("tool", tool);
    if (!workload.empty())
        w.field("workload", workload);
    w.field("seed", seed);
    if (includeVolatile) {
        // Build stamps are volatile too: the git hash moves with every
        // commit and the build type with the configuration, and neither
        // describes the simulated result, so byte-golden renders
        // (determinism tests) must not hash them.
        w.field("git", buildGitHash());
        w.field("build", buildType());
        if (!timestamp.empty())
            w.field("timestamp", timestamp);
        w.field("wallSeconds", wallSeconds);
    }
    w.field("completed", completed);
    w.field("simTicks", simTicks);
    w.field("lint", lintVerdict);
    w.key("config");
    w.beginObject();
    for (const auto &[k, v] : config)
        w.field(k, v);
    w.endObject();
    w.key("metrics");
    metrics.writeJson(w);
    w.key("tables");
    w.beginArray();
    for (const Table &t : tables)
        writeTableJson(w, t.title, t.headers, t.rows);
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

void
RunManifest::save(const std::string &path, bool includeVolatile) const
{
    const std::string json = renderJson(includeVolatile);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        cord_fatal("cannot open manifest output file ", path);
    const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (n != json.size())
        cord_fatal("short write to manifest output file ", path);
}

} // namespace cord
