#include "fleet/journal.hpp"

#include <algorithm>
#include <map>

#include "sim/json.hpp"

namespace gpuecc::sim::fleet {

namespace {

/** Journal schema version this reader understands. */
constexpr std::uint64_t kReaderVersion = 1;

/** Latency histogram bounds: 1 ms, 10 ms, 100 ms, 1 s, 10 s. */
const std::uint64_t kLatencyBoundsUs[] = {
    1'000, 10'000, 100'000, 1'000'000, 10'000'000,
};

std::string
formatMicros(std::uint64_t us)
{
    // Seconds with millisecond precision reads best in a timeline.
    const std::uint64_t ms = us / 1000;
    std::string out = std::to_string(ms / 1000) + ".";
    const std::string frac = std::to_string(ms % 1000);
    out += std::string(3 - frac.size(), '0') + frac + "s";
    return out;
}

} // namespace

std::uint64_t
JournalEvent::num(const std::string& key, std::uint64_t fallback) const
{
    for (const auto& [k, v] : numbers)
        if (k == key)
            return v;
    return fallback;
}

std::string
JournalEvent::str(const std::string& key) const
{
    for (const auto& [k, v] : strings)
        if (k == key)
            return v;
    return "";
}

Result<std::vector<JournalEvent>>
parseJournal(const std::string& text)
{
    std::vector<JournalEvent> events;
    std::size_t pos = 0;
    std::uint64_t line_no = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        ++line_no;
        if (line.empty())
            continue;
        const std::string where =
            "journal line " + std::to_string(line_no);

        auto doc = parseJson(line);
        if (!doc.ok())
            return Status::dataLoss(where + ": " +
                                    doc.status().message());
        const JsonValue& root = doc.value();
        if (!root.isObject())
            return Status::dataLoss(where + ": not a JSON object");

        JournalEvent event;
        std::uint64_t version = 0;
        for (const auto& [key, value] : root.members()) {
            if (key == "v") {
                auto v = value.asUint64();
                if (!v.ok())
                    return Status::dataLoss(where + ": bad \"v\"");
                version = v.value();
            } else if (key == "seq") {
                auto v = value.asUint64();
                if (!v.ok())
                    return Status::dataLoss(where + ": bad \"seq\"");
                event.seq = v.value();
            } else if (key == "ts_us") {
                auto v = value.asUint64();
                if (!v.ok())
                    return Status::dataLoss(where + ": bad \"ts_us\"");
                event.ts_us = v.value();
            } else if (key == "event") {
                auto v = value.asString();
                if (!v.ok())
                    return Status::dataLoss(where + ": bad \"event\"");
                event.event = v.value();
            } else if (value.isString()) {
                event.strings.emplace_back(key,
                                           value.asString().value());
            } else if (value.isNumber()) {
                auto v = value.asUint64();
                if (!v.ok())
                    return Status::dataLoss(where + ": field \"" + key +
                                            "\" is not a u64");
                event.numbers.emplace_back(key, v.value());
            } else {
                return Status::dataLoss(where + ": field \"" + key +
                                        "\" has an unexpected type");
            }
        }

        if (version != kReaderVersion)
            return Status::failedPrecondition(
                where + ": journal version " + std::to_string(version) +
                " (reader understands " +
                std::to_string(kReaderVersion) + ")");
        if (event.event.empty())
            return Status::dataLoss(where + ": missing \"event\"");
        // Sequence numbers are consecutive from 1 by construction, so
        // any gap or reorder is evidence of lost or mangled events.
        if (event.seq != events.size() + 1)
            return Status::dataLoss(
                where + ": sequence gap (seq " +
                std::to_string(event.seq) + ", expected " +
                std::to_string(events.size() + 1) + ")");
        events.push_back(std::move(event));
    }
    return events;
}

std::uint64_t
JournalSummary::unitsSettled() const
{
    return results + unit_errors + poisoned + skipped + units_resumed;
}

JournalSummary
summarizeJournal(const std::vector<JournalEvent>& events)
{
    JournalSummary summary;
    summary.events = events.size();
    summary.latency_bounds.assign(std::begin(kLatencyBoundsUs),
                                  std::end(kLatencyBoundsUs));
    summary.latency_buckets.assign(summary.latency_bounds.size() + 1,
                                   0);
    if (!events.empty()) {
        summary.first_ts_us = events.front().ts_us;
        summary.last_ts_us = events.back().ts_us;
    }

    std::map<std::string, std::size_t> event_index;
    std::map<std::string, std::size_t> host_index;
    // Unit → timestamp of its most recent dispatch, for latency.
    std::map<std::uint64_t, std::uint64_t> dispatched_at;

    const auto host = [&](const std::string& label)
        -> JournalHostSummary& {
        auto [it, fresh] =
            host_index.emplace(label, summary.hosts.size());
        if (fresh)
            summary.hosts.push_back({label, 0, 0, 0, 0, 0, 0});
        return summary.hosts[it->second];
    };

    for (const JournalEvent& e : events) {
        auto [it, fresh] =
            event_index.emplace(e.event, summary.event_counts.size());
        if (fresh)
            summary.event_counts.emplace_back(e.event, 0);
        ++summary.event_counts[it->second].second;

        if (e.event == "start") {
            summary.units_total = e.num("units");
            summary.units_pending = e.num("pending");
            summary.units_resumed = e.num("resumed");
        } else if (e.event == "connect") {
            ++summary.connects;
            ++host(e.str("host")).connects;
        } else if (e.event == "dispatch") {
            ++host(e.str("host")).dispatches;
            dispatched_at[e.num("unit")] = e.ts_us;
        } else if (e.event == "result") {
            ++summary.results;
            JournalHostSummary& h = host(e.str("host"));
            ++h.results;
            auto d = dispatched_at.find(e.num("unit"));
            if (d != dispatched_at.end() && e.ts_us >= d->second) {
                const std::uint64_t latency = e.ts_us - d->second;
                ++h.latency_count;
                h.latency_total_us += latency;
                h.latency_max_us =
                    std::max(h.latency_max_us, latency);
                std::size_t bucket = summary.latency_bounds.size();
                for (std::size_t b = 0;
                     b < summary.latency_bounds.size(); ++b) {
                    if (latency <= summary.latency_bounds[b]) {
                        bucket = b;
                        break;
                    }
                }
                ++summary.latency_buckets[bucket];
            }
        } else if (e.event == "unit_error") {
            ++summary.unit_errors;
        } else if (e.event == "poison") {
            ++summary.poisoned;
        } else if (e.event == "skip") {
            ++summary.skipped;
        } else if (e.event == "duplicate") {
            ++summary.duplicates;
        } else if (e.event == "requeue") {
            ++summary.requeues;
        } else if (e.event == "expiry") {
            ++summary.expiries;
        } else if (e.event == "timeout") {
            ++summary.timeouts;
        } else if (e.event == "host_lost") {
            ++summary.hosts_lost;
        } else if (e.event == "fallback") {
            ++summary.fallbacks;
        } else if (e.event == "drain") {
            summary.drained = true;
            summary.interrupted = e.num("interrupted") != 0;
        }
    }
    return summary;
}

std::string
formatJournalTimeline(const std::vector<JournalEvent>& events)
{
    std::string out;
    for (const JournalEvent& e : events) {
        out += "[" + formatMicros(e.ts_us) + "] #" +
               std::to_string(e.seq) + " " + e.event;
        for (const auto& [k, v] : e.strings)
            out += " " + k + "=" + v;
        for (const auto& [k, v] : e.numbers)
            out += " " + k + "=" + std::to_string(v);
        out += "\n";
    }
    return out;
}

std::string
formatJournalSummary(const JournalSummary& summary)
{
    std::string out;
    out += "events: " + std::to_string(summary.events) + " spanning " +
           formatMicros(summary.last_ts_us - summary.first_ts_us) +
           "\n";
    out += "units: " + std::to_string(summary.units_total) +
           " total, " + std::to_string(summary.unitsSettled()) +
           " settled (" + std::to_string(summary.results) +
           " results, " + std::to_string(summary.unit_errors) +
           " unit errors, " + std::to_string(summary.poisoned) +
           " poisoned, " + std::to_string(summary.skipped) +
           " skipped, " + std::to_string(summary.units_resumed) +
           " resumed)\n";
    out += "faults: " + std::to_string(summary.duplicates) +
           " duplicates, " + std::to_string(summary.requeues) +
           " requeues, " + std::to_string(summary.expiries) +
           " heartbeat expiries, " + std::to_string(summary.timeouts) +
           " timeouts, " + std::to_string(summary.hosts_lost) +
           " hosts lost, " + std::to_string(summary.fallbacks) +
           " fallbacks\n";
    out += std::string("drain: ") +
           (summary.drained
                ? (summary.interrupted ? "interrupted" : "clean")
                : "MISSING (journal truncated?)") +
           "\n";

    out += "hosts:\n";
    for (const JournalHostSummary& h : summary.hosts) {
        out += "  " + (h.host.empty() ? "(unnamed)" : h.host) + ": " +
               std::to_string(h.dispatches) + " dispatched, " +
               std::to_string(h.results) + " results";
        if (h.latency_count > 0) {
            out += ", latency mean " +
                   formatMicros(h.latency_total_us / h.latency_count) +
                   " max " + formatMicros(h.latency_max_us);
        }
        out += "\n";
    }

    out += "dispatch->result latency histogram:\n";
    for (std::size_t b = 0; b < summary.latency_buckets.size(); ++b) {
        const std::string label =
            b < summary.latency_bounds.size()
                ? "<= " + formatMicros(summary.latency_bounds[b])
                : "overflow";
        out += "  " + label + ": " +
               std::to_string(summary.latency_buckets[b]) + "\n";
    }
    return out;
}

} // namespace gpuecc::sim::fleet
