/**
 * @file
 * The fleet driver: forked local workers, one liaison loop each.
 *
 * runFleetService runs every fleet campaign. It forks spec.fleet_workers
 * local worker processes (pipe pairs) and serves each the
 * newline-JSON session protocol of fleet/protocol.hpp. Every worker
 * gets one liaison thread running the same loop over the
 * FleetDispatch core, so the tallies and the CSV report are
 * bit-identical to an in-process run of the same spec, no matter how
 * workers die or hang.
 *
 * Liveness and failure model:
 *  - Workers heartbeat every spec.fleet_heartbeat_timeout_s / 4; a
 *    worker silent past the timeout is retired and its in-flight unit
 *    requeued (fleet.heartbeat_expiries). An optional per-unit
 *    round-trip deadline (spec.fleet_worker_timeout_s) catches
 *    workers that beat but never answer (fleet.worker_timeouts).
 *  - A worker that dies, breaks protocol, or sends a settlement line
 *    the dispatcher refuses (a unit_error for a unit it does not
 *    hold, a result outside its unit) is retired and its unit
 *    requeued. Requeues are capped (spec.fleet_max_unit_attempts): a
 *    poison unit is retired into the report instead of cycling
 *    forever.
 *  - Degradation ladder: workers, then in-process. The last lost
 *    worker hands the remaining units to the parent at once. The
 *    campaign completes unless interrupted.
 *  - SIGTERM/SIGINT drain gracefully: in-flight units are requeued
 *    into the final checkpoint, workers get shutdown lines and are
 *    read until they close their pipe (one that stays silent past the
 *    heartbeat timeout is killed), and the partial result is
 *    reported.
 */

#ifndef GPUECC_FLEET_SERVICE_HPP
#define GPUECC_FLEET_SERVICE_HPP

#include "common/status.hpp"
#include "sim/campaign.hpp"

namespace gpuecc::sim::fleet {

/**
 * Run a fleet campaign to completion (or interrupt): the campaign
 * runner's entry point for fleet mode. Call while the process is
 * single-threaded — the local workers are forked inside. Returns the
 * merged campaign result; errors are unrecoverable setup problems
 * only (no fork/pipe on this platform, no usable scheme, a corrupt or
 * mismatched checkpoint).
 */
Result<CampaignResult>
runFleetService(const CampaignSpec& spec);

} // namespace gpuecc::sim::fleet

#endif // GPUECC_FLEET_SERVICE_HPP
