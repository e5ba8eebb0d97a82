#include "fleet/protocol.hpp"

#include "sim/json.hpp"
#include "sim/report.hpp"

namespace gpuecc::sim::fleet {

namespace {

/** Fetch a required uint64 member. */
Result<std::uint64_t>
getUint(const JsonValue& root, const std::string& key)
{
    Result<const JsonValue*> member = root.get(key);
    if (!member.ok())
        return member.status();
    return member.value()->asUint64();
}

/** Fetch a required string member. */
Result<std::string>
getString(const JsonValue& root, const std::string& key)
{
    Result<const JsonValue*> member = root.get(key);
    if (!member.ok())
        return member.status();
    return member.value()->asString();
}

/** Parse one line and check its "type" tag. */
Result<JsonValue>
parseLine(const std::string& line, const std::string& expect_type)
{
    Result<JsonValue> doc = parseJson(line);
    if (!doc.ok()) {
        return Status::dataLoss("fleet protocol line: " +
                                doc.status().message());
    }
    if (!doc.value().isObject())
        return Status::dataLoss("fleet protocol line is not an object");
    Result<std::string> type = getString(doc.value(), "type");
    if (!type.ok())
        return type.status();
    if (!expect_type.empty() && type.value() != expect_type) {
        return Status::dataLoss("fleet protocol: expected a " +
                                expect_type + " line, got " +
                                type.value());
    }
    return doc;
}

} // namespace

std::string
encodeUnitLine(const WorkUnit& unit)
{
    JsonWriter w;
    w.beginObject();
    w.kv("type", "unit");
    w.kv("unit", unit.unit);
    w.kv("first", unit.first_task);
    w.kv("count", unit.task_count);
    w.endObject();
    return w.str() + "\n";
}

std::string
encodeResultLine(const WorkerMessage& result)
{
    JsonWriter w;
    w.beginObject();
    w.kv("type", "result");
    w.kv("unit", result.unit);
    w.kv("worker", result.worker);
    w.kv("busy_us", result.busy_us);
    w.key("checkpoint");
    writeCheckpointJson(w, result.checkpoint);
    w.endObject();
    return w.str() + "\n";
}

std::string
encodeUnitErrorLine(std::uint64_t unit, int worker,
                    const std::string& message)
{
    JsonWriter w;
    w.beginObject();
    w.kv("type", "unit_error");
    w.kv("unit", unit);
    w.kv("worker", worker);
    w.kv("message", message);
    w.endObject();
    return w.str() + "\n";
}

std::string
encodeWorkerErrorLine(int worker, const std::string& message)
{
    JsonWriter w;
    w.beginObject();
    w.kv("type", "worker_error");
    w.kv("worker", worker);
    w.kv("message", message);
    w.endObject();
    return w.str() + "\n";
}

std::string
encodeHeartbeatLine(int worker)
{
    JsonWriter w;
    w.beginObject();
    w.kv("type", "heartbeat");
    w.kv("worker", worker);
    w.endObject();
    return w.str() + "\n";
}

std::string
encodeTelemetryLine(const WorkerMessage& telemetry)
{
    JsonWriter w;
    w.beginObject();
    w.kv("type", "telemetry");
    w.kv("worker", telemetry.worker);
    w.key("counters").beginArray();
    for (const auto& counter : telemetry.counters) {
        w.beginObject();
        w.kv("k", counter.first);
        w.kv("v", counter.second);
        w.endObject();
    }
    w.endArray();
    w.key("spans").beginArray();
    for (const SpanRecord& span : telemetry.spans) {
        w.beginObject();
        w.kv("n", span.name);
        w.kv("c", span.cat);
        w.kv("ts", span.ts_us);
        w.kv("d", span.dur_us);
        w.kv("u", span.unit);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

std::string
encodeShutdownLine()
{
    JsonWriter w;
    w.beginObject();
    w.kv("type", "shutdown");
    w.endObject();
    return w.str() + "\n";
}

Result<ServerMessage>
decodeServerLine(const std::string& line)
{
    Result<JsonValue> doc = parseLine(line, "");
    if (!doc.ok())
        return doc.status();
    const std::string type =
        getString(doc.value(), "type").value(); // parseLine validated
    ServerMessage out;
    if (type == "shutdown") {
        out.kind = ServerMessage::Kind::shutdown;
        return out;
    }
    if (type == "unit") {
        Result<std::uint64_t> unit = getUint(doc.value(), "unit");
        Result<std::uint64_t> first = getUint(doc.value(), "first");
        Result<std::uint64_t> count = getUint(doc.value(), "count");
        if (!unit.ok())
            return unit.status();
        if (!first.ok())
            return first.status();
        if (!count.ok())
            return count.status();
        if (count.value() == 0)
            return Status::dataLoss("fleet unit: empty task range");
        out.unit.unit = unit.value();
        out.unit.first_task = first.value();
        out.unit.task_count = count.value();
        return out;
    }
    return Status::dataLoss("fleet protocol: unknown server line type '" +
                            type + "'");
}

Result<WorkerMessage>
decodeWorkerLine(const std::string& line)
{
    Result<JsonValue> doc = parseLine(line, "");
    if (!doc.ok())
        return doc.status();
    const JsonValue& root = doc.value();
    const std::string type =
        getString(root, "type").value(); // parseLine validated it

    WorkerMessage out;
    Result<std::uint64_t> worker = getUint(root, "worker");
    if (!worker.ok())
        return worker.status();
    out.worker = static_cast<int>(worker.value());

    if (type == "result") {
        out.kind = WorkerMessage::Kind::result;
        Result<std::uint64_t> unit = getUint(root, "unit");
        Result<std::uint64_t> busy = getUint(root, "busy_us");
        if (!unit.ok())
            return unit.status();
        if (!busy.ok())
            return busy.status();
        out.unit = unit.value();
        out.busy_us = busy.value();
        Result<const JsonValue*> ckpt = root.get("checkpoint");
        if (!ckpt.ok())
            return ckpt.status();
        Result<CampaignCheckpoint> parsed = checkpointFromJson(
            *ckpt.value(),
            "worker " + std::to_string(out.worker) + " result");
        if (!parsed.ok())
            return parsed.status();
        out.checkpoint = std::move(parsed).value();
        return out;
    }
    if (type == "unit_error") {
        out.kind = WorkerMessage::Kind::unit_error;
        Result<std::uint64_t> unit = getUint(root, "unit");
        if (!unit.ok())
            return unit.status();
        out.unit = unit.value();
        Result<std::string> message = getString(root, "message");
        if (!message.ok())
            return message.status();
        out.message = message.value();
        return out;
    }
    if (type == "worker_error") {
        out.kind = WorkerMessage::Kind::worker_error;
        Result<std::string> message = getString(root, "message");
        if (!message.ok())
            return message.status();
        out.message = message.value();
        return out;
    }
    if (type == "heartbeat") {
        out.kind = WorkerMessage::Kind::heartbeat;
        return out;
    }
    if (type == "telemetry") {
        out.kind = WorkerMessage::Kind::telemetry;
        Result<const JsonValue*> counters = root.get("counters");
        if (!counters.ok())
            return counters.status();
        if (!counters.value()->isArray())
            return Status::dataLoss(
                "fleet telemetry: counters not an array");
        for (const JsonValue& c : counters.value()->elements()) {
            if (!c.isObject())
                return Status::dataLoss(
                    "fleet telemetry: counter not an object");
            Result<std::string> k = getString(c, "k");
            Result<std::uint64_t> v = getUint(c, "v");
            if (!k.ok())
                return k.status();
            if (!v.ok())
                return v.status();
            out.counters.emplace_back(k.value(), v.value());
        }

        Result<const JsonValue*> spans = root.get("spans");
        if (!spans.ok())
            return spans.status();
        if (!spans.value()->isArray())
            return Status::dataLoss(
                "fleet telemetry: spans not an array");
        for (const JsonValue& s : spans.value()->elements()) {
            if (!s.isObject())
                return Status::dataLoss(
                    "fleet telemetry: span not an object");
            SpanRecord span;
            Result<std::string> name = getString(s, "n");
            Result<std::string> cat = getString(s, "c");
            Result<std::uint64_t> ts = getUint(s, "ts");
            Result<std::uint64_t> dur = getUint(s, "d");
            Result<std::uint64_t> unit = getUint(s, "u");
            if (!name.ok())
                return name.status();
            if (!cat.ok())
                return cat.status();
            if (!ts.ok())
                return ts.status();
            if (!dur.ok())
                return dur.status();
            if (!unit.ok())
                return unit.status();
            span.name = name.value();
            span.cat = cat.value();
            span.ts_us = ts.value();
            span.dur_us = dur.value();
            span.unit = unit.value();
            out.spans.push_back(std::move(span));
        }
        return out;
    }
    return Status::dataLoss("fleet protocol: unknown line type '" +
                            type + "'");
}

} // namespace gpuecc::sim::fleet
