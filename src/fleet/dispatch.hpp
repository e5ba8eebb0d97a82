/**
 * @file
 * Transport-independent fleet dispatch core.
 *
 * FleetDispatch owns everything about a fleet campaign that does not
 * depend on *how* work units travel: the work units cut from the
 * shared campaign plan (sim/campaign_core.hpp), the unit queue,
 * unit-granular resume, requeue/poison accounting, per-host credit
 * and telemetry, and result finalization. The fleet service
 * (fleet/service.cpp) runs one liaison loop per forked local worker
 * over this surface: claim a unit, round-trip it to the worker, then
 * settle it exactly once via completeUnit / failUnit / requeueUnit.
 *
 * The dispatcher is also the fleet's one ledger. Each fact is counted
 * once, here: one obs::FleetWorkerRecord per host (credit, shipped
 * counters, how it ended), the fault counters of
 * obs::FleetTelemetry, and — through the campaign core — shard and
 * trial progress. timing.fleet, fleet.units_completed and the
 * fleet.host.<label>.* series are all rendered from it at finalize.
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
 * matter how many hosts died or replayed lines along the way.
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

#include "common/status.hpp"
#include "fleet/protocol.hpp"
#include "sim/campaign.hpp"

namespace gpuecc::sim {
struct CampaignPlan;
} // namespace gpuecc::sim

namespace gpuecc::sim::fleet {

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
    /** The campaign plan — what a forked worker inherits. */
    const CampaignPlan& plan() const;
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
     * Validate a decoded unit_error message against the unit its host
     * holds in flight (@p in_flight): a unit_error is only ever about
     * that unit, so any other index — possibly one outside the plan —
     * is a broken peer, refused before it can touch the settlement
     * table.
     */
    Status validateUnitError(const WorkerMessage& msg,
                             std::uint64_t in_flight) const;

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
    ///@}

    /** @name The host ledger */
    ///@{

    /**
     * Add a ledger row for a host — a forked local worker (@p pid its
     * process id) or the in-process fallback (worker -1). A local
     * worker that could not be forked is registered too, then closed
     * as lost.
     */
    void registerHost(int worker, const std::string& label,
                      std::int64_t pid = 0);

    /**
     * Record how @p worker ended: its @p exit_code, and whether it was
     * @p lost — dead, retired or never started — before the queue
     * drained. Counting a loss in fleet.workers_lost is
     * noteWorkerLost's job.
     */
    void closeHost(int worker, int exit_code, bool lost);

    /**
     * Merge one telemetry line from a host: shipped counter deltas
     * accumulate on the host's row (surfaced at finalize as
     * fleet.host.<label>.<name> series), and completed spans queue for
     * replay onto the host's trace track. Hosts ship telemetry
     * *before* the result it accompanies, so absorbing is always safe
     * pre-settlement and never double-counts: the counters are
     * deltas, shipped once.
     */
    void absorbTelemetry(const WorkerMessage& msg);

    ///@}

    /**
     * Stop the clocks, flush the final checkpoint, drop failed
     * schemes, fill timing.fleet (its worker_records are the ledger's
     * rows, minus the in-process fallback's) and the fleet.* counters —
     * fleet.units_completed (the rows' unit credit) and the fault
     * counters, then per row its units, shards, trials and shipped
     * counters as fleet.host.<label>.<name> — and return the campaign
     * result. Call once, after all liaisons joined.
     */
    CampaignResult finalize();

  private:
    FleetDispatch() = default;

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace gpuecc::sim::fleet

#endif // GPUECC_FLEET_DISPATCH_HPP
