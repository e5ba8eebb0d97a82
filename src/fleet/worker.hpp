/**
 * @file
 * Fleet worker unit-serving loop, shared by local workers and agents.
 *
 * A worker is the serving half of the fleet dispatcher: it takes one
 * config line, independently rebuilds the campaign task plan from it,
 * refuses to serve (worker_error) if its re-derived fingerprint
 * differs from the dispatcher's, then evaluates work units until the
 * dispatcher sends a shutdown line or hangs up. serveFleetUnits is
 * that loop, transport-agnostic: the forked local worker
 * (fleetWorkerMain) runs it over its pipe pair, the socket agent
 * (net/agent) over an authenticated TCP connection with a read
 * deadline for dead-server detection. Both beat on a background
 * thread so the dispatcher can tell "busy evaluating" from "dead".
 * Workers are single-threaded on the evaluation path on purpose —
 * fleet parallelism is process-level — which keeps fork() safe and
 * each worker's memory footprint flat.
 */

#ifndef GPUECC_FLEET_WORKER_HPP
#define GPUECC_FLEET_WORKER_HPP

#include <functional>
#include <string>

#include "common/status.hpp"
#include "common/subprocess.hpp"
#include "fleet/protocol.hpp"

namespace gpuecc::sim::fleet {

/** Exit code: the pipe protocol broke (unreadable/unwritable). */
constexpr int kWorkerProtocolExit = 3;

/** Exit code: setup failed (bad config, plan fingerprint mismatch). */
constexpr int kWorkerSetupExit = 4;

/** How a serveFleetUnits session ended. */
enum class ServeEnd
{
    eof,      //!< dispatcher closed the stream without a shutdown
    shutdown, //!< dispatcher sent a shutdown line (graceful drain)
    silent,   //!< read deadline expired: the dispatcher went quiet
    protocol, //!< unreadable/unwritable stream or a garbage line
    setup,    //!< config didn't check out (fingerprint mismatch, ...)
};

/** Knobs distinguishing the local worker from the socket agent. */
struct ServeOptions
{
    /** Interval between heartbeat lines. */
    int heartbeat_interval_ms = 2000;
    /** Max wire silence before ServeEnd::silent; -1 blocks forever. */
    int read_deadline_ms = -1;
};

/** Sink for one '\n'-terminated protocol line. */
using WriteLineFn = std::function<Status(const std::string&)>;

/**
 * Serve work units for @p cfg from @p in, replying through
 * @p write_line, until the stream ends. Rebuilds and fingerprints the
 * plan first (ServeEnd::setup on mismatch, after a worker_error
 * line). Writes — results and heartbeats — are serialized internally,
 * so @p write_line needs no locking of its own.
 */
ServeEnd serveFleetUnits(const FleetConfig& cfg, LineReader& in,
                         const WriteLineFn& write_line,
                         const ServeOptions& opts);

/**
 * Child-process main loop of a forked local worker: serve work units
 * over the pipe pair, beating every @p heartbeat_interval_ms, until a
 * shutdown line or EOF on @p read_fd. Returns the process exit code
 * (0 on a normal shutdown). Runs in a forked child — it must not
 * assume any parent thread state and reports every failure as a
 * protocol line before exiting, never via fatal().
 */
int fleetWorkerMain(int read_fd, int write_fd, int heartbeat_interval_ms);

} // namespace gpuecc::sim::fleet

#endif // GPUECC_FLEET_WORKER_HPP
