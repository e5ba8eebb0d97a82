/**
 * @file
 * Fleet event-journal reader: parse, validate, and summarize the
 * NDJSON journal obs::EventJournal writes (--journal FILE).
 *
 * The reader is the post-mortem half of the observability plane: it
 * proves the journal is complete (schema version on every line,
 * consecutive sequence numbers — a gap means lost events), rebuilds
 * the campaign timeline, and derives per-host activity and
 * dispatch→result latency histograms. tools/fleet_journal is a thin
 * CLI over these functions; tests drive them directly so the logic is
 * covered without process plumbing.
 */

#ifndef GPUECC_FLEET_JOURNAL_HPP
#define GPUECC_FLEET_JOURNAL_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace gpuecc::sim::fleet {

/** One parsed journal line. */
struct JournalEvent
{
    std::uint64_t seq = 0;
    std::uint64_t ts_us = 0; //!< µs since journal open
    std::string event;       //!< "connect", "dispatch", "result", ...
    std::vector<std::pair<std::string, std::string>> strings;
    std::vector<std::pair<std::string, std::uint64_t>> numbers;

    /** Numeric field lookup with a fallback. */
    std::uint64_t num(const std::string& key,
                      std::uint64_t fallback = 0) const;

    /** String field lookup; empty string when absent. */
    std::string str(const std::string& key) const;
};

/**
 * Parse a whole journal file's text. Structured errors on a
 * non-object line, a wrong schema version, or a sequence gap — the
 * journal is append-only with consecutive "seq", so any gap is
 * evidence of lost events, not tolerable noise.
 */
Result<std::vector<JournalEvent>>
parseJournal(const std::string& text);

/** Per-host activity reconstructed from dispatch/result events. */
struct JournalHostSummary
{
    std::string host; //!< host label ("local-0", "parent")
    std::uint64_t connects = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t results = 0;
    /** Dispatch→result latency over this host's settled units. */
    std::uint64_t latency_count = 0;
    std::uint64_t latency_total_us = 0;
    std::uint64_t latency_max_us = 0;
};

/** Everything a post-mortem wants in one pass over the events. */
struct JournalSummary
{
    std::uint64_t events = 0;
    std::uint64_t first_ts_us = 0;
    std::uint64_t last_ts_us = 0;

    /** From the "start" event (0 when the journal lost its head). */
    std::uint64_t units_total = 0;
    std::uint64_t units_pending = 0;
    std::uint64_t units_resumed = 0;

    /** Unit-settlement counts, by disposition. */
    std::uint64_t results = 0;
    std::uint64_t unit_errors = 0;
    std::uint64_t poisoned = 0;
    std::uint64_t skipped = 0;
    /** results + unit_errors + poisoned + skipped + units_resumed. */
    std::uint64_t unitsSettled() const;

    std::uint64_t duplicates = 0;
    std::uint64_t requeues = 0;
    std::uint64_t expiries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t hosts_lost = 0;
    std::uint64_t connects = 0;
    std::uint64_t fallbacks = 0;
    bool drained = false;
    bool interrupted = false;

    /** Event name → count, in first-appearance order. */
    std::vector<std::pair<std::string, std::uint64_t>> event_counts;

    /** Per-host activity, in first-appearance order. */
    std::vector<JournalHostSummary> hosts;

    /** Dispatch→result latency histogram (inclusive µs bounds). */
    std::vector<std::uint64_t> latency_bounds;
    /** bounds.size() + 1 buckets; the last is overflow. */
    std::vector<std::uint64_t> latency_buckets;
};

/** One pass over parsed events; never fails (unknown events count). */
JournalSummary
summarizeJournal(const std::vector<JournalEvent>& events);

/** The timeline, one readable line per event. */
std::string
formatJournalTimeline(const std::vector<JournalEvent>& events);

/** The summary as a readable report (hosts, latencies, dispositions). */
std::string formatJournalSummary(const JournalSummary& summary);

} // namespace gpuecc::sim::fleet

#endif // GPUECC_FLEET_JOURNAL_HPP
