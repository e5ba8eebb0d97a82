/**
 * @file
 * Fleet worker: the child-process main loop of a forked local worker.
 *
 * A worker is the serving half of the fleet dispatcher: it takes one
 * config line, independently rebuilds the campaign task plan from it,
 * refuses to serve (worker_error) if its re-derived fingerprint
 * differs from the dispatcher's, then evaluates work units until the
 * dispatcher sends a shutdown line or closes the pipe. It beats on a
 * background thread so the dispatcher can tell "busy evaluating" from
 * "dead". Workers are single-threaded on the evaluation path on
 * purpose — fleet parallelism is process-level — which keeps fork()
 * safe and each worker's memory footprint flat.
 */

#ifndef GPUECC_FLEET_WORKER_HPP
#define GPUECC_FLEET_WORKER_HPP

namespace gpuecc::sim::fleet {

/** Exit code: the pipe protocol broke (unreadable/unwritable). */
constexpr int kWorkerProtocolExit = 3;

/** Exit code: setup failed (bad config, plan fingerprint mismatch). */
constexpr int kWorkerSetupExit = 4;

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
