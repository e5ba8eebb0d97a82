#include "sim/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <set>

#include "faultsim/shard.hpp"
#include "sim/chaos.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"

namespace gpuecc::sim {

namespace {

constexpr int kCheckpointVersion = 1;

/** Read one [task, trials, dce, due, sdc, exhaustive] tuple. */
Status
parseEntry(const JsonValue& row, CheckpointEntry& out)
{
    if (!row.isArray() || row.elements().size() != 6) {
        return Status::dataLoss(
            "checkpoint task entry is not a 6-element array");
    }
    const auto& e = row.elements();
    std::uint64_t* fields[] = {&out.task, &out.counts.trials,
                               &out.counts.dce, &out.counts.due,
                               &out.counts.sdc};
    for (int i = 0; i < 5; ++i) {
        Result<std::uint64_t> v = e[i].asUint64();
        if (!v.ok())
            return v.status();
        *fields[i] = v.value();
    }
    Result<bool> exhaustive = e[5].asBool();
    if (!exhaustive.ok())
        return exhaustive.status();
    out.counts.exhaustive = exhaustive.value();
    if (!out.counts.selfConsistent()) {
        return Status::dataLoss(
            "checkpoint task " + std::to_string(out.task) +
            ": dce + due + sdc does not equal trials");
    }
    return {};
}

} // namespace

std::string
campaignFingerprint(const std::vector<std::string>& scheme_ids,
                    const std::vector<ErrorPattern>& patterns,
                    std::uint64_t samples, std::uint64_t seed,
                    std::uint64_t chunk,
                    const std::string& codec_backend,
                    std::uint64_t task_count)
{
    std::string fp = "v1;schemes=";
    for (std::size_t i = 0; i < scheme_ids.size(); ++i) {
        if (i)
            fp += ',';
        fp += scheme_ids[i];
    }
    fp += ";patterns=";
    for (std::size_t i = 0; i < patterns.size(); ++i) {
        if (i)
            fp += ',';
        fp += std::to_string(static_cast<int>(patterns[i]));
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ";samples=%" PRIu64 ";seed=%" PRIu64
                  ";chunk=%" PRIu64 ";block=%" PRIu64
                  ";tasks=%" PRIu64,
                  samples, seed, chunk, kStreamBlockSamples,
                  task_count);
    fp += buf;
    fp += ";backend=" + codec_backend;
    fp += ";sampler=" + std::to_string(kSamplerVersion);
    return fp;
}

void
writeCheckpointJson(JsonWriter& w,
                    const CampaignCheckpoint& checkpoint)
{
    w.beginObject();
    w.kv("version", kCheckpointVersion);
    w.kv("fingerprint", checkpoint.fingerprint);
    if (!checkpoint.manifest.empty()) {
        w.key("manifest").beginObject();
        for (const auto& [key, value] : checkpoint.manifest)
            w.kv(key, value);
        w.endObject();
    }
    w.key("tasks").beginArray();
    for (const CheckpointEntry& e : checkpoint.done) {
        w.beginArray();
        w.value(e.task).value(e.counts.trials).value(e.counts.dce);
        w.value(e.counts.due).value(e.counts.sdc);
        w.value(e.counts.exhaustive);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

Result<CampaignCheckpoint>
checkpointFromJson(const JsonValue& root, const std::string& label)
{
    if (!root.isObject())
        return Status::dataLoss(label +
                                ": document is not an object");

    Result<const JsonValue*> version = root.get("version");
    if (!version.ok())
        return version.status();
    Result<std::uint64_t> v = version.value()->asUint64();
    if (!v.ok())
        return v.status();
    if (v.value() != kCheckpointVersion) {
        return Status::dataLoss(label + ": unsupported version " +
                                std::to_string(v.value()));
    }

    CampaignCheckpoint out;
    Result<const JsonValue*> fingerprint = root.get("fingerprint");
    if (!fingerprint.ok())
        return fingerprint.status();
    Result<std::string> fp = fingerprint.value()->asString();
    if (!fp.ok())
        return fp.status();
    out.fingerprint = fp.value();

    // Optional, informational, lenient: absent in pre-telemetry
    // checkpoints, and non-string values are simply skipped.
    if (const JsonValue* manifest = root.find("manifest")) {
        for (const auto& [key, value] : manifest->members()) {
            if (value.isString())
                out.manifest.emplace_back(
                    key, value.asString().value());
        }
    }

    Result<const JsonValue*> tasks = root.get("tasks");
    if (!tasks.ok())
        return tasks.status();
    if (!tasks.value()->isArray())
        return Status::dataLoss(label + ": \"tasks\" is not an array");

    std::set<std::uint64_t> seen;
    out.done.reserve(tasks.value()->elements().size());
    for (const JsonValue& row : tasks.value()->elements()) {
        CheckpointEntry entry;
        if (Status s = parseEntry(row, entry); !s.ok())
            return Status::dataLoss(label + ": " + s.message());
        if (!seen.insert(entry.task).second) {
            return Status::dataLoss(
                label + ": task " + std::to_string(entry.task) +
                " appears twice");
        }
        out.done.push_back(entry);
    }
    return out;
}

Status
saveCheckpoint(const std::string& path,
               const CampaignCheckpoint& checkpoint)
{
    if (Status chaos = chaosOnCheckpointWrite(); !chaos.ok())
        return chaos;

    JsonWriter w;
    writeCheckpointJson(w, checkpoint);

    // Write-to-temp + rename: readers (and a resume after a crash
    // right here) only ever see the old file or the complete new
    // one. The temp write fsyncs the data, and the directory sync
    // after the rename makes the *name* durable too — an fsynced
    // file a crashed directory forgot is still a lost checkpoint.
    const std::string tmp = path + ".tmp";
    if (Status s = saveTextFileDurable(tmp, w.str()); !s.ok())
        return s;
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status::ioError("cannot rename " + tmp + " to " + path);
    }
    return syncParentDirectory(path);
}

Result<CampaignCheckpoint>
loadCheckpoint(const std::string& path)
{
    Result<std::string> text = loadTextFile(path);
    if (!text.ok())
        return text.status();

    Result<JsonValue> doc = parseJson(text.value());
    if (!doc.ok()) {
        return Status::dataLoss("checkpoint " + path + ": " +
                                doc.status().message());
    }
    return checkpointFromJson(doc.value(), "checkpoint " + path);
}

} // namespace gpuecc::sim
