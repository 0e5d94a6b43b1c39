/**
 * @file
 * Machine-readable run manifests.
 *
 * Every cordsim invocation (and any bench binary that opts in) can
 * write one JSON document describing the run end to end: tool,
 * workload, configuration, seed, build stamp (git hash + build type),
 * wall/simulated time, the full hierarchical metrics snapshot, result
 * tables, and the lint verdict.  Manifests are what `cordstat` shows,
 * diffs and aggregates, and what CI uploads so performance can be
 * compared across PRs (docs/OBSERVABILITY.md documents the schema).
 *
 * Serialization is deterministic for a fixed seed: all maps are
 * sorted and the volatile fields (git/build stamp, timestamp,
 * wallSeconds -- everything describing the host build or wall clock
 * rather than the simulated result) can be suppressed
 * (includeVolatile = false) so tests can require byte-identical
 * output across runs, commits, and build configurations.
 */

#ifndef CORD_OBS_MANIFEST_H
#define CORD_OBS_MANIFEST_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/types.h"

namespace cord
{

class JsonWriter;

/** Manifest schema identifier (bump on breaking changes). */
inline constexpr const char *kManifestSchema = "cord-manifest-v1";

/**
 * Shared emitter for tabular results: {"title", "headers", "rows"}.
 * Used both by TextTable's --json output (harness/table.h) and by the
 * tables embedded in run manifests.
 */
void writeTableJson(JsonWriter &w, const std::string &title,
                    const std::vector<std::string> &headers,
                    const std::vector<std::vector<std::string>> &rows);

/** One run's machine-readable record. */
struct RunManifest
{
    /** A result table embedded in the manifest. */
    struct Table
    {
        std::string title;
        std::vector<std::string> headers;
        std::vector<std::vector<std::string>> rows;
    };

    std::string tool;     //!< producing binary ("cordsim", "bench_...")
    std::string workload; //!< workload name ("" for multi-app benches)
    std::uint64_t seed = 0;

    /** Flat configuration key/value pairs (sorted on output). */
    std::map<std::string, std::string> config;

    bool completed = true;   //!< false = watchdog fired
    Tick simTicks = 0;       //!< simulated cycles
    std::string lintVerdict = "skipped"; //!< "clean"|"findings"|"skipped"

    /** Volatile fields, suppressed when determinism matters. */
    double wallSeconds = 0.0;
    std::string timestamp; //!< ISO-8601 UTC, set by stampTime()

    MetricHub metrics;
    std::vector<Table> tables;

    /** Set a numeric config entry. */
    void
    setConfig(const std::string &key, std::uint64_t v)
    {
        config[key] = std::to_string(v);
    }

    void
    setConfig(const std::string &key, const std::string &v)
    {
        config[key] = v;
    }

    /** Record the current UTC wall-clock time into `timestamp`. */
    void stampTime();

    /**
     * Render the manifest as pretty-printed JSON.
     * @param includeVolatile include git/build stamp, timestamp,
     *        and wallSeconds
     */
    std::string renderJson(bool includeVolatile = true) const;

    /** Write renderJson() to @p path (fatal on I/O error). */
    void save(const std::string &path,
              bool includeVolatile = true) const;
};

} // namespace cord

#endif // CORD_OBS_MANIFEST_H
