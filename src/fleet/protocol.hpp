/**
 * @file
 * Fleet wire protocol: newline-delimited JSON over a forked local
 * worker's pipe pair.
 *
 * A worker is a fork of the parent and inherits its campaign plan, so
 * the session starts with work: the parent sends *unit* lines naming
 * contiguous shard-task ranges of that plan, and the worker answers
 * each unit with a *result* line whose payload is a checkpoint
 * document — the same serialization and the same validator as the
 * on-disk checkpoint sidecar, so tallies travel through a pipe with
 * exactly the guarantees they have through a file (width checks,
 * per-entry consistency, fingerprint match). Errors
 * come back as structured lines too: a unit_error fails one
 * (scheme, pattern) cell gracefully, a worker_error retires the whole
 * worker and requeues its unit.
 *
 * Around that sits a small session layer: *heartbeat* lines from the
 * worker (liveness — a worker whose heartbeats stop is retired and
 * its unit requeued), *telemetry* lines, and a *shutdown* line from
 * the parent for graceful drain. Every line is bounded by the
 * LineReader's cap (kDefaultMaxLineBytes); an oversized line is a
 * structured dataLoss, never unbounded buffer growth.
 */

#ifndef GPUECC_FLEET_PROTOCOL_HPP
#define GPUECC_FLEET_PROTOCOL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "sim/checkpoint.hpp"

namespace gpuecc::sim::fleet {

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
 * One completed worker-side trace span. A forked worker inherits the
 * parent's trace origin, and CLOCK_MONOTONIC is one clock for both
 * processes, so obs::traceNowUs() in the worker already reads the
 * parent's trace timeline: the dispatcher replays these as they are.
 */
struct SpanRecord
{
    std::string name; //!< span name ("unit 12", scheme id, ...)
    std::string cat;  //!< trace category ("fleet")
    std::uint64_t ts_us = 0;  //!< start, µs on the trace clock
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

    /** @name telemetry payload */
    ///@{
    /** Monotonic counter deltas since the previous telemetry line. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /** Spans completed since the previous telemetry line. */
    std::vector<SpanRecord> spans;
    ///@}
};

/** One parsed parent → worker line. */
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
std::string encodeUnitLine(const WorkUnit& unit);
std::string encodeResultLine(const WorkerMessage& result);
std::string encodeUnitErrorLine(std::uint64_t unit, int worker,
                                const std::string& message);
std::string encodeWorkerErrorLine(int worker,
                                  const std::string& message);
std::string encodeHeartbeatLine(int worker);
std::string encodeTelemetryLine(const WorkerMessage& telemetry);
std::string encodeShutdownLine();
///@}

/** @name Line decoders (structural validation; dataLoss on garbage) */
///@{
Result<WorkerMessage> decodeWorkerLine(const std::string& line);
Result<ServerMessage> decodeServerLine(const std::string& line);
///@}

} // namespace gpuecc::sim::fleet

#endif // GPUECC_FLEET_PROTOCOL_HPP
