/**
 * @file
 * Append-only NDJSON event journal for fleet campaign lifecycles.
 *
 * Every fleet lifecycle event (connect, auth failure, unit dispatch,
 * result, requeue, heartbeat expiry, poison retirement, fallback,
 * drain) appends one bounded JSON object line carrying a schema
 * version ("v"), a monotonic sequence number ("seq"), and a
 * microsecond timestamp relative to journal open ("ts_us") — so a
 * post-mortem reader can prove it saw every event in order even when
 * the producing process died mid-campaign. Writes follow the
 * checkpoint durability discipline: each append is flushed and
 * fsync'd (write-through) before append() returns, so the journal on
 * stable storage never lies about what the dispatcher had decided.
 *
 * The writer lives in obs (common-only dependencies); the reader —
 * which needs the JSON parser — lives in fleet/journal.hpp, and
 * tools/fleet_journal is a thin CLI over it.
 */

#ifndef GPUECC_OBS_JOURNAL_HPP
#define GPUECC_OBS_JOURNAL_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace gpuecc::obs {

/** Journal schema version written as "v" on every line. */
constexpr std::uint64_t kJournalVersion = 1;

/** Thread-safe append-only NDJSON event writer. */
class EventJournal
{
  public:
    /** String fields of one event ([["host","local-0"], ...]). */
    using Fields = std::vector<std::pair<std::string, std::string>>;
    /** Numeric fields of one event ([["unit",7], ...]). */
    using Nums = std::vector<std::pair<std::string, std::uint64_t>>;

    /**
     * Create (truncating) the journal file. Fails with a structured
     * Status when the path is unwritable; never throws.
     */
    static Result<std::unique_ptr<EventJournal>>
    open(const std::string& path);

    ~EventJournal();

    EventJournal(const EventJournal&) = delete;
    EventJournal& operator=(const EventJournal&) = delete;

    /**
     * Append one event line and push it through to stable storage.
     * Safe from any thread; events are sequenced under an internal
     * mutex so "seq" is strictly increasing in file order. A write
     * failure disables the journal (warned once) rather than failing
     * the campaign — observability must never kill the run.
     */
    void append(const std::string& event, const Fields& fields = {},
                const Nums& nums = {});

    /** Events successfully appended so far. */
    std::uint64_t eventsWritten() const;

    /** The path the journal writes to. */
    const std::string& path() const { return path_; }

  private:
    EventJournal() = default;

    std::string path_;
    std::FILE* file_ = nullptr;
    mutable std::mutex mutex_;
    std::uint64_t seq_ = 0;
    bool failed_ = false;
    std::chrono::steady_clock::time_point origin_;
};

} // namespace gpuecc::obs

#endif // GPUECC_OBS_JOURNAL_HPP
