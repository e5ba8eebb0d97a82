/**
 * @file
 * Fleet worker: the child-process main loop of a forked local worker.
 *
 * A worker is a fork of the parent, so it holds the parent's campaign
 * plan, codec backend, chaos spec and trace origin without being told
 * any of them. It evaluates work units of that plan until the
 * dispatcher sends a shutdown line or closes the pipe, and beats on a
 * background thread so the dispatcher can tell "busy evaluating" from
 * "dead". Workers are single-threaded on the evaluation path on
 * purpose — fleet parallelism is process-level — which keeps fork()
 * safe and each worker's memory footprint flat.
 */

#ifndef GPUECC_FLEET_WORKER_HPP
#define GPUECC_FLEET_WORKER_HPP

#include "faultsim/shard.hpp"
#include "fleet/protocol.hpp"
#include "sim/campaign_core.hpp"

namespace gpuecc::sim::fleet {

/** Exit code: the pipe protocol broke (unreadable/unwritable). */
constexpr int kWorkerProtocolExit = 3;

/**
 * Evaluate every task of @p unit on the calling thread: the one unit
 * evaluator, run by forked workers and by the dispatcher's in-process
 * rung alike. Returns a result message for @p worker (tallies in plan
 * order, busy time; no fingerprint), or a unit_error carrying the
 * first task failure — the caller fails the unit's cell. Shard-task
 * retries are added to @p retries.
 */
WorkerMessage evaluateUnit(const CampaignPlan& plan, const WorkUnit& unit,
                           int worker, ShardBatchArena& arena,
                           std::uint64_t& retries);

/**
 * Child-process main loop of forked local worker @p worker: serve
 * units of @p plan (the parent's, inherited by fork) over the pipe
 * pair, beating every @p heartbeat_interval_ms, until a shutdown line
 * or EOF on @p read_fd. Returns the process exit code (0 on a normal
 * shutdown). Runs in a forked child — it must not assume any parent
 * thread state and reports every failure as a protocol line before
 * exiting, never via fatal().
 */
int fleetWorkerMain(const CampaignPlan& plan, int worker, int read_fd,
                    int write_fd, int heartbeat_interval_ms);

} // namespace gpuecc::sim::fleet

#endif // GPUECC_FLEET_WORKER_HPP
