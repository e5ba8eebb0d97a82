/**
 * @file
 * Campaign result emission: CSV and JSON artifacts.
 *
 * Every bench and example shares one machine-readable surface so
 * downstream tooling (plots, regression dashboards, the CI smoke run)
 * can consume any campaign the same way. JsonWriter is a minimal
 * streaming writer — no external JSON dependency — that the benches
 * also use for their own bespoke artifacts (e.g. BENCH_throughput.json).
 */

#ifndef GPUECC_SIM_REPORT_HPP
#define GPUECC_SIM_REPORT_HPP

#include <string>
#include <vector>

#include "common/status.hpp"
#include "obs/manifest.hpp"
#include "sim/campaign.hpp"

namespace gpuecc::sim {

/** Minimal streaming JSON writer (objects, arrays, scalars). */
class JsonWriter
{
  public:
    JsonWriter& beginObject();
    JsonWriter& endObject();
    JsonWriter& beginArray();
    JsonWriter& endArray();

    /** Key of the next value inside an object. */
    JsonWriter& key(const std::string& k);

    JsonWriter& value(const std::string& v);
    JsonWriter& value(const char* v);
    JsonWriter& value(double v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(int v);
    JsonWriter& value(bool v);

    /** key(k) followed by value(v). */
    template <typename T>
    JsonWriter& kv(const std::string& k, const T& v)
    {
        key(k);
        return value(v);
    }

    /** The document so far; call after closing every scope. */
    const std::string& str() const { return out_; }

  private:
    void separate();

    std::string out_;
    /** One entry per open scope: whether a separator is pending. */
    std::vector<bool> need_comma_{false};
};

/**
 * Campaign cells as CSV: a `# manifest` comment naming the plan
 * identity (schemes, patterns, samples, seed, chunk, codec backend —
 * deliberately nothing thread- or timing-dependent, so the bytes stay
 * identical across thread counts and resumes), then header + one line
 * per cell.
 */
std::string campaignCsv(const CampaignResult& result);

/**
 * Campaign spec, run stats, cells, errors, plus the provenance
 * manifest and a "timing" section (wall/CPU, pool utilization,
 * per-scheme breakdown, campaign.* metric counters) as a JSON
 * document. tools/compare_runs diffs two of these.
 */
std::string campaignJson(const CampaignResult& result);

/** The provenance manifest describing how `result` was produced. */
obs::RunManifest campaignRunManifest(const CampaignResult& result);

/** Serialize a manifest as the next JSON value (after w.key(...)). */
void writeRunManifest(JsonWriter& w, const obs::RunManifest& manifest);

/**
 * Write one fleet host row's fields into the open JSON object — the
 * one row serializer behind timing.fleet.worker_records and the live
 * /status hosts.
 */
void writeFleetWorkerRecord(JsonWriter& w,
                            const obs::FleetWorkerRecord& record);

/**
 * Serialize a campaign's timing section as the next JSON value:
 * wall/CPU seconds, throughput, pool telemetry, per-scheme timings,
 * and the campaign.* metric counters/histograms recorded by the run.
 */
void writeCampaignTiming(JsonWriter& w, const CampaignResult& result);

/**
 * Write content to path, detecting every failure mode fopen/fwrite/
 * fclose can report (unwritable path, disk full, I/O error) — a
 * partial artifact is deleted rather than left looking valid.
 */
Status saveTextFile(const std::string& path,
                    const std::string& content);

/**
 * saveTextFile plus an fsync before close, so the bytes are on
 * stable storage when the Status is ok — the write half of the
 * durable write-to-temp + rename + directory-sync recipe the
 * checkpoint writer follows. On platforms without fsync it degrades
 * to saveTextFile.
 */
Status saveTextFileDurable(const std::string& path,
                           const std::string& content);

/**
 * fsync the directory containing @p path. A rename is only durable
 * once the directory holding the new name is synced; a crash after
 * rename but before this call may roll the directory entry back to
 * the old file. No-op ok on platforms without directory fsync.
 */
Status syncParentDirectory(const std::string& path);

/** Read a whole file; notFound / ioError instead of exceptions. */
Result<std::string> loadTextFile(const std::string& path);

/** saveTextFile for contexts with no recovery path; fatal on error. */
void writeTextFile(const std::string& path, const std::string& content);

} // namespace gpuecc::sim

#endif // GPUECC_SIM_REPORT_HPP
