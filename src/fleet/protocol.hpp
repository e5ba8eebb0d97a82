/**
 * @file
 * Fleet wire protocol: newline-delimited JSON over a forked local
 * worker's pipe pair.
 *
 * The parent sends one *config* line (the full campaign plan identity:
 * schemes, patterns, samples, seed, effective chunk, fingerprint,
 * codec backend) followed by *unit* lines naming contiguous shard-task
 * ranges; the worker answers each unit with a *result* line whose
 * payload is a checkpoint document — the same serialization and the
 * same validator as the on-disk checkpoint sidecar, so tallies travel
 * through a pipe with exactly the guarantees they have through a file
 * (width checks, per-entry consistency, fingerprint match). Errors
 * come back as structured lines too: a unit_error fails one
 * (scheme, pattern) cell gracefully, a worker_error retires the whole
 * worker and requeues its unit.
 *
 * Around that sits a small session layer: *heartbeat* lines from the
 * worker (liveness — a worker whose heartbeats stop is retired and
 * its unit requeued), *telemetry* lines, and a *shutdown* line from
 * the parent for graceful drain. Every line is bounded by
 * kMaxWireLineBytes at the parser; an oversized line is a structured
 * dataLoss, never unbounded buffer growth.
 */

#ifndef GPUECC_FLEET_PROTOCOL_HPP
#define GPUECC_FLEET_PROTOCOL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "faultsim/patterns.hpp"
#include "sim/checkpoint.hpp"

namespace gpuecc::sim::fleet {

/**
 * Hard cap on one wire line. Generous — a result line carries one
 * checkpoint entry per shard task of its unit — but bounded, so a
 * corrupt or hostile peer cannot grow a read buffer without limit.
 */
constexpr std::size_t kMaxWireLineBytes = std::size_t{64} << 20;

/** Everything a worker needs to rebuild the campaign plan. */
struct FleetConfig
{
    int worker = 0; //!< dense worker index (chaos targets it)
    std::vector<std::string> scheme_ids;
    std::vector<ErrorPattern> patterns;
    std::uint64_t samples = 0;
    std::uint64_t seed = 0;
    /** Effective (block-aligned) chunk — the plan the parent built. */
    std::uint64_t chunk = 0;
    /** campaignFingerprint of the parent's plan; workers re-derive
        and refuse to serve a plan that doesn't match. */
    std::string fingerprint;
    std::string codec_backend; //!< "compiled" or "reference"
};

/**
 * One dispatchable work unit: a contiguous shard-task range within a
 * single (scheme, pattern) cell. `cell` is parent-side bookkeeping
 * (failure isolation) and does not travel on the wire — the worker
 * derives each task's cell from its plan index.
 */
struct WorkUnit
{
    std::uint64_t unit = 0; //!< dense unit index
    std::size_t cell = 0;   //!< parent-side only
    std::uint64_t first_task = 0;
    std::uint64_t task_count = 0;
};

/**
 * One completed worker-side trace span, timestamped on the *worker's*
 * clock as microseconds since that worker received its config line.
 * The dispatcher rebases these onto its own trace timeline using the
 * config-send timestamp plus the clock-offset estimate refined by
 * heartbeat `now_us` samples (see DESIGN.md §17).
 */
struct SpanRecord
{
    std::string name; //!< span name ("unit 12", scheme id, ...)
    std::string cat;  //!< trace category ("fleet")
    std::uint64_t ts_us = 0;  //!< start, worker-relative µs
    std::uint64_t dur_us = 0; //!< duration µs
    std::uint64_t unit = 0;   //!< unit index the span covers
};

/** One parsed worker → parent line. */
struct WorkerMessage
{
    enum class Kind
    {
        result,       //!< unit completed; checkpoint holds tallies
        unit_error,   //!< unit's cell failed persistently (message)
        worker_error, //!< worker unusable; message says why
        heartbeat,    //!< liveness beacon
        telemetry,    //!< metrics delta + finished spans (PR 10)
    };

    Kind kind = Kind::result;
    std::uint64_t unit = 0; //!< result / unit_error
    int worker = 0;
    std::uint64_t busy_us = 0; //!< worker-side evaluation time
    CampaignCheckpoint checkpoint; //!< result only
    std::string message;           //!< error kinds only

    /** @name telemetry / heartbeat payload */
    ///@{
    /** Worker-relative clock sample (µs since config receipt). */
    std::uint64_t now_us = 0;
    /** Monotonic counter deltas since the previous telemetry line. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /** Spans completed since the previous telemetry line. */
    std::vector<SpanRecord> spans;
    ///@}
};

/** One parsed parent → worker line after the config line. */
struct ServerMessage
{
    enum class Kind
    {
        unit,     //!< a work unit to evaluate
        shutdown, //!< graceful drain: finish nothing more, hang up
    };

    Kind kind = Kind::unit;
    WorkUnit unit; //!< kind == unit only
};

/** @name Line encoders (each returns one '\n'-terminated line) */
///@{
std::string encodeConfigLine(const FleetConfig& config);
std::string encodeUnitLine(const WorkUnit& unit);
std::string encodeResultLine(const WorkerMessage& result);
std::string encodeUnitErrorLine(std::uint64_t unit, int worker,
                                const std::string& message);
std::string encodeWorkerErrorLine(int worker,
                                  const std::string& message);
/** `now_us` is the worker-relative clock sample used for clock-offset
    refinement; 0 means "no sample". */
std::string encodeHeartbeatLine(int worker, std::uint64_t now_us = 0);
std::string encodeTelemetryLine(const WorkerMessage& telemetry);
std::string encodeShutdownLine();
///@}

/** @name Line decoders (structural validation; dataLoss on garbage) */
///@{
Result<FleetConfig> decodeConfigLine(const std::string& line);
Result<WorkerMessage> decodeWorkerLine(const std::string& line);
Result<ServerMessage> decodeServerLine(const std::string& line);
///@}

} // namespace gpuecc::sim::fleet

#endif // GPUECC_FLEET_PROTOCOL_HPP
