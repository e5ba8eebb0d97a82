#include "sim/report.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/json_escape.hpp"
#include "common/log.hpp"
#include "obs/trace.hpp"

namespace gpuecc::sim {

namespace {

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
JsonWriter::separate()
{
    if (need_comma_.back())
        out_ += ',';
    need_comma_.back() = true;
}

JsonWriter&
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    need_comma_.push_back(false);
    return *this;
}

JsonWriter&
JsonWriter::endObject()
{
    out_ += '}';
    need_comma_.pop_back();
    return *this;
}

JsonWriter&
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    need_comma_.push_back(false);
    return *this;
}

JsonWriter&
JsonWriter::endArray()
{
    out_ += ']';
    need_comma_.pop_back();
    return *this;
}

JsonWriter&
JsonWriter::key(const std::string& k)
{
    separate();
    out_ += '"' + jsonEscaped(k) + "\":";
    // The upcoming value must not emit another separator.
    need_comma_.back() = false;
    return *this;
}

JsonWriter&
JsonWriter::value(const std::string& v)
{
    separate();
    out_ += '"' + jsonEscaped(v) + '"';
    return *this;
}

JsonWriter&
JsonWriter::value(const char* v)
{
    return value(std::string(v));
}

JsonWriter&
JsonWriter::value(double v)
{
    separate();
    out_ += formatDouble(v);
    return *this;
}

JsonWriter&
JsonWriter::value(std::uint64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::value(int v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter&
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

std::string
campaignCsv(const CampaignResult& result)
{
    // Plan identity only: no threads, no timing, no host facts.
    // CI diffs these bytes across thread counts and resumes.
    std::string out = "# manifest schemes=";
    const auto& ids = result.spec.scheme_ids;
    for (std::size_t i = 0; i < ids.size(); ++i)
        out += (i ? "," : "") + ids[i];
    out += " patterns=";
    const auto patterns = result.spec.resolvedPatterns();
    for (std::size_t i = 0; i < patterns.size(); ++i)
        out += (i ? "," : "") + patternInfo(patterns[i]).label;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  " samples=%" PRIu64 " seed=%" PRIu64
                  " chunk=%" PRIu64,
                  result.spec.samples, result.spec.seed,
                  result.spec.chunk);
    out += buf;
    out += " codec=" + result.codec_backend +
           " sampler=" + std::to_string(kSamplerVersion) + "\n";
    out += "scheme,pattern,trials,dce,due,sdc,exhaustive,"
           "dce_rate,due_rate,sdc_rate,sdc_ci_lo,"
           "sdc_ci_hi\n";
    for (const CampaignCell& cell : result.cells) {
        const OutcomeCounts& c = cell.counts;
        const Interval ci = c.sdcInterval();
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s,%s,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                      ",%" PRIu64 ",%d,%.9g,%.9g,%.9g,%.9g,%.9g\n",
                      cell.scheme_id.c_str(),
                      patternInfo(cell.pattern).label.c_str(),
                      c.trials, c.dce, c.due, c.sdc,
                      c.exhaustive ? 1 : 0, c.dceRate(), c.dueRate(),
                      c.sdcRate(), ci.lo, ci.hi);
        out += buf;
    }
    return out;
}

namespace {

/** The provenance manifest describing how `result` was produced. */
obs::RunManifest
campaignRunManifest(const CampaignResult& result)
{
    obs::RunManifest m;
    m.tool = obs::toolName();
    m.build = obs::buildInfo();
    m.threads = result.spec.threads;
    m.codec_backend = result.codec_backend;
    m.chaos = obs::chaosEnvText();
    m.samples = result.spec.samples;
    m.seed = result.spec.seed;
    m.chunk = result.spec.chunk;
    m.fleet_workers = result.fleet.workers;
    m.schemes = result.spec.scheme_ids;
    m.traced = obs::traceEnabled();
    m.sampler = kSamplerVersion;
    return m;
}

} // namespace

void
writeRunManifest(JsonWriter& w, const obs::RunManifest& manifest)
{
    w.beginObject();
    w.kv("tool", manifest.tool);
    w.kv("build_type", manifest.build.build_type);
    w.kv("compiler", manifest.build.compiler);
    w.kv("platform", manifest.build.platform);
    w.kv("hardware_threads", manifest.build.hardware_threads);
    w.kv("threads", manifest.threads);
    w.kv("codec_backend", manifest.codec_backend);
    w.kv("chaos", manifest.chaos);
    w.kv("samples", manifest.samples);
    w.kv("seed", manifest.seed);
    w.kv("chunk", manifest.chunk);
    w.kv("fleet_workers", manifest.fleet_workers);
    w.key("schemes").beginArray();
    for (const std::string& id : manifest.schemes)
        w.value(id);
    w.endArray();
    w.kv("traced", manifest.traced);
    w.kv("sampler", manifest.sampler);
    w.endObject();
}

namespace {

/**
 * Serialize a campaign's timing section as the next JSON value:
 * wall/CPU seconds, throughput, pool telemetry, per-scheme timings,
 * and the campaign.* metric counters/histograms recorded by the run.
 */
void
writeCampaignTiming(JsonWriter& w, const CampaignResult& result)
{
    w.beginObject();
    w.kv("wall_seconds", result.seconds);
    w.kv("cpu_seconds", result.cpu_seconds);
    w.kv("trials_per_second", result.trialsPerSecond());

    w.key("pool").beginObject();
    w.kv("threads", result.pool.threads);
    w.kv("tasks_executed", result.pool.tasks_executed);
    w.kv("steals", result.pool.steals);
    w.kv("busy_seconds", result.pool.busy_seconds);
    w.kv("wall_seconds", result.pool.wall_seconds);
    w.kv("utilization", result.pool.utilization());
    w.kv("idle_fraction", result.pool.idleFraction());
    // Per-worker load split: worker i's busy seconds and its share
    // of the pool wall clock — the imbalance view the aggregate
    // utilization hides.
    w.key("workers").beginArray();
    for (std::size_t i = 0;
         i < result.pool.worker_busy_seconds.size(); ++i) {
        w.beginObject();
        w.kv("worker", static_cast<std::uint64_t>(i));
        w.kv("busy_seconds", result.pool.worker_busy_seconds[i]);
        w.kv("utilization", result.pool.workerUtilization(i));
        w.endObject();
    }
    w.endArray();
    w.endObject();

    // Fleet section only for fleet runs, so in-process artifacts keep
    // their pre-fleet shape byte-for-byte.
    if (result.fleet.workers > 0) {
        const obs::FleetTelemetry& f = result.fleet;
        w.key("fleet").beginObject();
        w.kv("workers", f.workers);
        w.kv("units", f.units);
        w.kv("unit_shards", f.unit_shards);
        w.kv("parent_fallback_shards", f.parent_fallback_shards);
        for (const obs::FleetFaultCounter& c : obs::kFleetFaultCounters)
            w.kv(c.key, f.*c.field);
        w.key("worker_records").beginArray();
        for (const obs::FleetWorkerRecord& r : f.worker_records) {
            w.beginObject();
            w.kv("worker", r.worker);
            w.kv("pid", static_cast<std::uint64_t>(r.pid));
            w.kv("units", r.units);
            w.kv("shards", r.shards);
            w.kv("trials", r.trials);
            w.kv("busy_seconds", r.busy_seconds);
            w.kv("exit_code", r.exit_code);
            w.kv("lost", r.lost);
            w.kv("label", r.label);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.key("schemes").beginArray();
    for (const obs::SchemeTiming& t : result.scheme_timings) {
        w.beginObject();
        w.kv("scheme", t.scheme_id);
        w.kv("wall_seconds", t.wall_seconds);
        w.kv("cpu_seconds", t.cpu_seconds);
        w.kv("shards", t.shards);
        w.kv("trials", t.trials);
        w.endObject();
    }
    w.endArray();

    w.key("counters").beginObject();
    for (const obs::CounterValue& c : result.metrics.counters)
        w.kv(c.name, c.value);
    w.endObject();

    w.key("histograms").beginObject();
    for (const obs::HistogramValue& h : result.metrics.histograms) {
        w.key(h.name).beginObject();
        w.key("bounds").beginArray();
        for (const std::uint64_t b : h.bounds)
            w.value(b);
        w.endArray();
        w.key("counts").beginArray();
        for (const std::uint64_t c : h.counts)
            w.value(c);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

} // namespace

std::string
campaignJson(const CampaignResult& result)
{
    JsonWriter w;
    w.beginObject();
    w.key("spec").beginObject();
    w.kv("samples", result.spec.samples);
    w.kv("seed", result.spec.seed);
    w.kv("threads", result.spec.threads);
    w.kv("chunk", result.spec.chunk);
    w.kv("fleet_workers", result.spec.fleet_workers);
    w.kv("fleet_unit", result.spec.fleet_unit_shards);
    w.key("schemes").beginArray();
    for (const std::string& id : result.spec.scheme_ids)
        w.value(id);
    w.endArray();
    w.endObject();

    w.kv("codec_backend", result.codec_backend);
    w.kv("seconds", result.seconds);
    w.kv("shards", result.shards);
    w.kv("total_trials", result.totalTrials());
    w.kv("trials_per_second", result.trialsPerSecond());

    w.key("manifest");
    writeRunManifest(w, campaignRunManifest(result));
    w.key("timing");
    writeCampaignTiming(w, result);

    // Degradations the run recorded (skipped schemes); empty on a
    // clean run, so resumed and uninterrupted reports stay diffable.
    w.key("errors").beginArray();
    for (const CampaignError& e : result.errors) {
        w.beginObject();
        w.kv("scheme", e.scheme_id);
        w.kv("message", e.message);
        w.endObject();
    }
    w.endArray();

    w.key("cells").beginArray();
    for (const CampaignCell& cell : result.cells) {
        const OutcomeCounts& c = cell.counts;
        const Interval ci = c.sdcInterval();
        w.beginObject();
        w.kv("scheme", cell.scheme_id);
        w.kv("pattern", patternInfo(cell.pattern).label);
        w.kv("trials", c.trials);
        w.kv("dce", c.dce);
        w.kv("due", c.due);
        w.kv("sdc", c.sdc);
        w.kv("exhaustive", c.exhaustive);
        w.kv("dce_rate", c.dceRate());
        w.kv("due_rate", c.dueRate());
        w.kv("sdc_rate", c.sdcRate());
        w.kv("sdc_ci_lo", ci.lo);
        w.kv("sdc_ci_hi", ci.hi);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

Status
saveTextFile(const std::string& path, const std::string& content)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return Status::ioError("cannot open " + path +
                               " for writing: " +
                               std::strerror(errno));
    }
    const std::size_t written =
        std::fwrite(content.data(), 1, content.size(), f);
    // fclose flushes the stdio buffer, so a full disk can surface
    // here even when every fwrite "succeeded".
    const bool flushed = std::fclose(f) == 0;
    if (written != content.size() || !flushed) {
        std::remove(path.c_str());
        return Status::ioError("short write to " + path +
                               " (disk full or I/O error); partial "
                               "file removed");
    }
    return {};
}

#if defined(__unix__) || defined(__APPLE__)

Status
saveTextFileDurable(const std::string& path,
                    const std::string& content)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return Status::ioError("cannot open " + path +
                               " for writing: " +
                               std::strerror(errno));
    }
    const std::size_t written =
        std::fwrite(content.data(), 1, content.size(), f);
    const bool flushed = std::fflush(f) == 0;
    // fsync before close: a Status::ok must mean the bytes survived
    // a crash, not just that they reached the page cache.
    const bool synced = flushed && fsync(fileno(f)) == 0;
    const bool closed = std::fclose(f) == 0;
    if (written != content.size() || !flushed || !synced || !closed) {
        std::remove(path.c_str());
        return Status::ioError("durable write to " + path +
                               " failed (disk full or I/O error); "
                               "partial file removed");
    }
    return {};
}

Status
syncParentDirectory(const std::string& path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = open(dir.empty() ? "/" : dir.c_str(),
                        O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        return Status::ioError("cannot open directory " + dir +
                               " for fsync: " + std::strerror(errno));
    }
    const bool synced = fsync(fd) == 0;
    const int err = errno;
    close(fd);
    if (!synced) {
        return Status::ioError("fsync of directory " + dir +
                               " failed: " + std::strerror(err));
    }
    return {};
}

#else // no POSIX fsync: degrade to the plain write

Status
saveTextFileDurable(const std::string& path,
                    const std::string& content)
{
    return saveTextFile(path, content);
}

Status
syncParentDirectory(const std::string&)
{
    return {};
}

#endif

Result<std::string>
loadTextFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        const int err = errno;
        const std::string detail =
            "cannot open " + path + ": " + std::strerror(err);
        if (err == ENOENT)
            return Status::notFound(detail);
        return Status::ioError(detail);
    }
    std::string content;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        return Status::ioError("read error on " + path);
    return content;
}

void
writeTextFile(const std::string& path, const std::string& content)
{
    if (Status s = saveTextFile(path, content); !s.ok())
        fatal(s.toString());
}

} // namespace gpuecc::sim
