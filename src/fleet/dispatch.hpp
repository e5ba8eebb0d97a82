/**
 * @file
 * Transport-independent fleet dispatch core.
 *
 * FleetDispatch owns everything about a fleet campaign that does not
 * depend on *how* work units travel: the work units cut from the
 * shared campaign plan (sim/campaign_core.hpp), the unit queue,
 * unit-granular resume, requeue/poison accounting, per-host credit
 * and telemetry, and result finalization. The fleet service
 * (net/service.cpp) runs one liaison loop per host — forked local
 * worker or authenticated agent alike — over this surface: claim a
 * unit, round-trip it to the host, then settle it exactly once via
 * completeUnit / failUnit / requeueUnit.
 *
 * The dispatcher is also the fleet's one ledger. Each fact is counted
 * once, here: one obs::FleetWorkerRecord per host connection (credit,
 * shipped counters, how it ended), the fault counters of
 * obs::FleetTelemetry, and — through the campaign core — shard and
 * trial progress. /status, /metrics, timing.fleet and the
 * fleet.host.<label>.* series are all rendered from it.
 *
 * The queue is a deque under the dispatcher's state mutex, plus a
 * condition variable: an idle liaison blocks in waitClaim and wakes
 * the moment a unit is requeued or the last unit settles.
 *
 * Settlement is idempotent by construction: every unit settles at
 * most once (a mutex-guarded per-unit flag), so a late or duplicated
 * result from a host that was presumed dead is discarded — counted in
 * fleet.duplicate_results — instead of double-merging. That is what
 * makes the merged tallies bit-identical to an in-process run no
 * matter how many hosts died, reconnected, or replayed lines along
 * the way.
 *
 * Requeues are capped (spec.fleet_max_unit_attempts): a poison unit
 * that kills every host it lands on is retired after the cap — its
 * (scheme, pattern) cell fails with the unit's shard range in the
 * message, counted in fleet.units_poisoned — instead of cycling
 * through the whole fleet forever.
 */

#ifndef GPUECC_FLEET_DISPATCH_HPP
#define GPUECC_FLEET_DISPATCH_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fleet/protocol.hpp"
#include "sim/campaign.hpp"

namespace gpuecc::sim::fleet {

/**
 * One consistent sample of the live campaign, cheap enough to take
 * from an HTTP handler thread mid-run: unit/shard/trial progress,
 * every transport fault counter, throughput and an ETA, and the
 * ledger's host rows. Reading it never touches the tallies or the
 * queue ordering, so sampling cannot perturb determinism.
 */
struct DispatchStatus
{
    std::uint64_t units_total = 0;
    std::uint64_t units_settled = 0; //!< includes resumed units
    std::uint64_t units_resumed = 0;
    std::uint64_t units_in_flight = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t shards_total = 0;
    std::uint64_t shards_done = 0; //!< includes resumed shards
    std::uint64_t trials_done = 0; //!< evaluated this run
    /** Plan facts and fault counters so far (no worker records). */
    obs::FleetTelemetry fleet;
    double elapsed_seconds = 0.0;
    double units_per_second = 0.0;
    /** Negative = unknown (nothing settled live yet). */
    double eta_seconds = -1.0;
    /** Every host connection's row, the in-process fallback's too. */
    std::vector<obs::FleetWorkerRecord> hosts;
};

/** One sample of the series fleet.host.<label>.<name>. */
struct HostSample
{
    std::string label;
    std::string name;
    std::uint64_t value = 0;
};

/**
 * The host-labelled series of @p hosts: per label, its units, shards
 * and trials, then the counters its hosts shipped — summed over every
 * row with that label, so a reconnecting agent reports as one host.
 * Labels keep first-connection order. The one label merge: the
 * campaign's fleet.host.* counters and /metrics both render from it.
 */
std::vector<HostSample>
hostSeries(const std::vector<obs::FleetWorkerRecord>& hosts);

/** The /status document: @p status as JSON. */
std::string statusJson(const DispatchStatus& status);

/**
 * The /metrics document: @p status as Prometheus text, host series
 * labelled by host (gpuecc_fleet_host_units{host="<label>"}).
 */
std::string statusMetricsText(const DispatchStatus& status);

class FleetDispatch
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * Build the plan and cut it into work units that never straddle a
     * cell boundary, then restore a resume checkpoint at unit
     * granularity. Errors here are unrecoverable setup problems (no
     * usable scheme, corrupt or mismatched checkpoint). Runs on the
     * calling thread; fork any worker processes between create() and
     * start().
     */
    static Result<std::unique_ptr<FleetDispatch>>
    create(const CampaignSpec& spec);

    ~FleetDispatch();

    /** @name Plan facts (immutable after create) */
    ///@{
    const WorkUnit& unit(std::uint64_t u) const;
    /** Units not settled by resume restore at create() time. */
    std::uint64_t initialPendingUnits() const;
    /** The config line payload for one worker/agent. */
    FleetConfig configFor(int worker) const;
    ///@}

    /**
     * Start the clocks and the progress reporter. Call exactly once,
     * after every fork (the reporter owns a thread) and before any
     * liaison thread touches the dispatcher.
     */
    void start();

    /** Whether every unit has settled (the campaign is done). */
    bool allSettled() const;

    /**
     * Pop the next dispatchable unit, blocking up to @p slice (zero:
     * not at all) while the queue is empty. Units whose cell already
     * failed are settled-and-skipped internally; units settled by a
     * late result are dropped. A requeue or the last settlement wakes
     * every waiter at once. Returns false when the slice passed with
     * nothing to claim — while !allSettled(), other liaisons hold the
     * last units in flight (they may come back) — or every unit
     * settled.
     */
    bool waitClaim(std::uint64_t& u, Clock::duration slice);

    /**
     * Validate a decoded result message against the unit it names and
     * the plan (unit index, fingerprint, entry range, per-entry
     * tallies) — the same tally validator checkpoint resume uses.
     */
    Status validateResult(const WorkerMessage& msg) const;

    /**
     * Merge a validated result, settle the unit it names and credit
     * the row of the host that delivered it (msg.worker). Returns
     * false if that unit was already settled — a late or duplicated
     * delivery, counted in fleet.duplicate_results, tallies and
     * credit untouched.
     */
    bool completeUnit(const WorkerMessage& msg,
                      Clock::time_point dispatch_at,
                      Clock::time_point done_at);

    /**
     * Settle a unit whose cell failed persistently inside a host
     * (unit_error line): the scheme is dropped at finalize, the
     * campaign continues.
     */
    void failUnit(std::uint64_t u, const std::string& message);

    /**
     * Put an in-flight unit back after its host died, hung, or broke
     * protocol — unless a late result settled it first. At the attempt
     * cap (spec.fleet_max_unit_attempts) the unit is retired instead
     * and its cell fails, with @p why in the poison message.
     */
    void requeueUnit(std::uint64_t u, const std::string& why);

    /**
     * Serve every still-pending unit on the calling thread — the
     * last-resort degradation when no host is left. Respects
     * interrupts; failures fail cells, never the campaign.
     */
    void finishInProcess();

    /** @name Transport telemetry (fleet.* fault counters) */
    ///@{
    void noteWorkerLost();
    void noteWorkerTimeout();
    void noteHeartbeatExpiry();
    void noteAuthFailure();
    ///@}

    /** @name The host ledger */
    ///@{

    /**
     * Add a ledger row for a host connection — a forked local worker
     * (@p pid its process id), an authenticated remote agent, or the
     * in-process fallback (worker -1). Call at config-send time: the
     * instant is captured on both the steady and trace clocks and
     * becomes the reference every span timestamp the host later ships
     * is rebased against (a host's clock reads "µs since it received
     * the config"). Journals the connect and counts remote ones in
     * fleet.agents_connected. A local worker that could not be forked
     * is registered too, then closed as lost.
     */
    void registerHost(int worker, const std::string& label, bool remote,
                      std::int64_t pid = 0);

    /**
     * Record how @p worker's connection ended: a local worker's
     * @p exit_code (0 for agents), and whether the host was @p lost —
     * dead, retired or never started — before the queue drained.
     * Counting a loss in fleet.workers_lost is noteWorkerLost's job.
     */
    void closeHost(int worker, int exit_code, bool lost);

    /** Journal one unit dispatch (host looked up by @p worker). */
    void noteUnitDispatched(std::uint64_t u, int worker);

    /**
     * Merge one telemetry or heartbeat line from a host: shipped
     * counter deltas accumulate on the host's row (surfaced at
     * finalize as fleet.host.<label>.<name> series), completed spans
     * queue for replay onto the host's trace track, and now_us (0 = no
     * sample) tightens the minimum-latency clock offset used to rebase
     * them. Hosts ship telemetry *before* the result it accompanies,
     * so absorbing is always safe pre-settlement and never
     * double-counts: the counters are deltas, shipped once.
     */
    void absorbTelemetry(const WorkerMessage& msg);

    /** Sample the live state — the /status and /metrics source. */
    DispatchStatus status() const;

    ///@}

    /**
     * Stop the clocks, flush the final checkpoint, drop failed
     * schemes, fill timing.fleet (its worker_records are the ledger's
     * rows, minus the in-process fallback's) and the fleet.* counters,
     * and return the campaign result. Call once, after all liaisons
     * joined.
     */
    CampaignResult finalize();

  private:
    FleetDispatch() = default;

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace gpuecc::sim::fleet

#endif // GPUECC_FLEET_DISPATCH_HPP
