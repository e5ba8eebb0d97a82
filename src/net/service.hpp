/**
 * @file
 * The fleet driver: one liaison loop for local workers and remote
 * agents alike.
 *
 * FleetService runs every fleet campaign. It forks spec.fleet_workers
 * local worker processes (pipe pairs) and, given spec.fleet_listen,
 * also serves the same newline-JSON session protocol over TCP to
 * remote agent processes (tools/fleet_agent). Every host gets one
 * liaison thread running the same loop over the FleetDispatch core,
 * so the tallies and the CSV report are bit-identical to an
 * in-process run of the same spec, no matter how hosts come and go.
 * The two kinds of host differ only at the edges: a local worker
 * skips the handshake and is written with plain pipe writes (so the
 * net_* chaos faults hit only TCP lines); an agent authenticates
 * first and every line to it takes the chaos-aware wire path.
 *
 * Liveness and failure model:
 *  - Every TCP connection is authenticated with an HMAC
 *    challenge-response over spec.fleet_secret before any plan data
 *    moves (net/auth.hpp); a failed proof is rejected and counted
 *    (fleet.auth_failures).
 *  - Hosts heartbeat every spec.fleet_heartbeat_timeout_s / 4 (agents
 *    at their own configured interval); a host silent past the
 *    timeout is retired and its in-flight unit requeued
 *    (fleet.heartbeat_expiries). An optional per-unit round-trip
 *    deadline (spec.fleet_worker_timeout_s) catches hosts that beat
 *    but never answer (fleet.worker_timeouts).
 *  - A host that dies, breaks protocol, or answers a unit_error for
 *    a unit it does not hold is retired and its unit requeued.
 *    Requeues are capped (spec.fleet_max_unit_attempts): a poison
 *    unit is retired into the report instead of cycling forever.
 *  - Degradation ladder: hosts, then in-process. Without a listen
 *    address the last lost worker hands the remaining units to the
 *    parent at once; with one, the service first waits
 *    spec.fleet_grace_s with no live host for an agent to
 *    (re)connect. The campaign completes unless interrupted.
 *  - SIGTERM/SIGINT drain gracefully: in-flight units are requeued
 *    into the final checkpoint, hosts get shutdown lines, and the
 *    partial result is reported.
 */

#ifndef GPUECC_NET_SERVICE_HPP
#define GPUECC_NET_SERVICE_HPP

#include <memory>

#include "common/status.hpp"
#include "net/socket.hpp"
#include "sim/campaign.hpp"

namespace gpuecc::net {

class ObsHttpServer;

class FleetService
{
  public:
    /**
     * Validate the spec and bind the listener when spec.fleet_listen
     * names one (port 0 for an ephemeral port). Binding before run()
     * lets a caller learn port() first and point agents at it — tests
     * and scripts launch agents before the campaign plan finishes
     * building, and the connects simply wait in the backlog.
     */
    static Result<std::unique_ptr<FleetService>>
    create(const sim::CampaignSpec& spec);

    ~FleetService();

    /** The bound port (the ephemeral one when the spec said 0); 0
        without a listen address. */
    int port() const { return listener_.port(); }

    /**
     * The bound observability endpoint port, or -1 when the spec did
     * not ask for one. Like the fleet listener, the endpoint binds in
     * create() so a caller (or test) can learn the port before run();
     * it serves nothing until the campaign starts.
     */
    int obsPort() const;

    /**
     * Run the campaign to completion (or interrupt). Call once, while
     * the process is single-threaded — the local workers are forked
     * inside. Returns the merged campaign result; errors are
     * unrecoverable setup problems only.
     */
    Result<sim::CampaignResult> run();

  private:
    FleetService() = default;

    sim::CampaignSpec spec_;
    TcpListener listener_;
    std::unique_ptr<ObsHttpServer> obs_server_;
    bool ran_ = false;
};

/** create + run: the campaign runner's entry point for fleet mode. */
Result<sim::CampaignResult>
runFleetService(const sim::CampaignSpec& spec);

} // namespace gpuecc::net

#endif // GPUECC_NET_SERVICE_HPP
