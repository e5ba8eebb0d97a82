#include "fleet/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "fleet/worker.hpp"
#include "obs/trace.hpp"
#include "sim/campaign_core.hpp"

namespace gpuecc::sim::fleet {

namespace {

/** Add @p value to the counter @p name in @p counters. */
void
accumulate(std::vector<std::pair<std::string, std::uint64_t>>& counters,
           const std::string& name, std::uint64_t value)
{
    auto it = std::find_if(counters.begin(), counters.end(),
                           [&](const auto& c) { return c.first == name; });
    if (it == counters.end())
        counters.emplace_back(name, value);
    else
        it->second += value;
}

} // namespace

struct FleetDispatch::Impl
{
    std::unique_ptr<CampaignCore> core;
    /** The plan's fingerprint, which every worker result must carry. */
    std::string fingerprint;
    std::vector<WorkUnit> units;
    std::uint64_t initial_pending = 0;
    int max_attempts = 3;
    /** Unsettled units; read lock-free by allSettled(). */
    std::atomic<std::uint64_t> remaining{0};

    std::mutex state_mutex; // everything below, unless noted
    /** Wakes waitClaim on a requeue and on the last settlement. */
    std::condition_variable wake;
    std::deque<std::uint64_t> queue;
    std::vector<char> unit_settled;
    std::vector<int> unit_attempts; // failed dispatches per unit
    /** Plan facts, the fault counters and the fallback's shards. */
    obs::FleetTelemetry telemetry;

    /** One ledger row per host, plus its shipped spans. */
    struct HostSlot
    {
        obs::FleetWorkerRecord row;
        std::vector<SpanRecord> spans;
    };
    std::vector<HostSlot> hosts; // state_mutex

    std::unique_ptr<obs::TraceSpan> campaign_span;
    std::unique_ptr<obs::TraceSpan> evaluate_span;

    const CampaignPlan& plan() const { return core->plan(); }

    /**
     * Settle one unit; state_mutex held. Every settlement path
     * (complete, fail, skip, poison) funnels here so remaining stays
     * consistent, and the last one wakes every idle liaison.
     */
    void settleLocked(std::uint64_t u)
    {
        unit_settled[u] = 1;
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
            wake.notify_all();
    }

    /**
     * Retire an unsettled unit through a failure path — no trials
     * ran, but its shards are disposed of, so the progress line
     * reaches 100% even when a cell fails. State_mutex held.
     */
    void disposeLocked(std::uint64_t u, const std::string* failure)
    {
        const WorkUnit& unit = units[u];
        if (failure != nullptr)
            core->fail(unit.cell, unit.task_count, *failure);
        else
            core->skip(unit.cell, unit.task_count);
        settleLocked(u);
    }

    /** Pop the next dispatchable unit; state_mutex held. */
    bool popLocked(std::uint64_t& u)
    {
        while (!queue.empty()) {
            const std::uint64_t candidate = queue.front();
            queue.pop_front();
            if (unit_settled[candidate] != 0)
                continue; // a late result beat the requeue to it
            if (core->cellFailed(units[candidate].cell)) {
                // Its cell already failed: settle it silently (the
                // checkpoint just never lists its tasks).
                disposeLocked(candidate, nullptr);
                continue;
            }
            u = candidate;
            return true;
        }
        return false;
    }

    /** Human label of a unit's cell, e.g. "rs-dueh/two_bit_row". */
    std::string unitLabel(std::uint64_t u) const
    {
        const CampaignCell& cell =
            core->result().cells[units[u].cell];
        return cell.scheme_id + "/" + patternInfo(cell.pattern).label;
    }

    /** The slot registered for @p worker; state_mutex held. */
    HostSlot* slotForLocked(int worker)
    {
        for (HostSlot& slot : hosts)
            if (slot.row.worker == worker)
                return &slot;
        return nullptr;
    }
};

FleetDispatch::~FleetDispatch() = default;

Result<std::unique_ptr<FleetDispatch>>
FleetDispatch::create(const CampaignSpec& spec)
{
    auto impl = std::make_unique<Impl>();
    impl->max_attempts = std::max(1, spec.fleet_max_unit_attempts);

    impl->campaign_span = std::make_unique<obs::TraceSpan>(
        "fleet-campaign", "campaign");

    // Size shards so every worker can hold whole units: one slot per
    // shard of a unit per worker. Evaluation happens in
    // single-threaded workers, so the result truthfully reports one
    // thread, not pool parallelism that never existed.
    const std::uint64_t slots = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(spec.fleet_workers) *
            spec.fleet_unit_shards,
        std::uint64_t{1} << 20);
    Result<std::unique_ptr<CampaignCore>> core = CampaignCore::create(
        spec, CampaignCore::Driver::fleet, 1, slots);
    if (!core.ok())
        return core.status();
    impl->core = std::move(core).value();
    const CampaignPlan& plan = impl->plan();
    impl->fingerprint = plan.fingerprint();

    // Work units: contiguous task runs that never straddle a cell
    // boundary, so one unit failing persistently fails exactly one
    // (scheme, pattern) cell.
    for (std::uint64_t i = 0; i < plan.tasks.size();) {
        WorkUnit u;
        u.unit = impl->units.size();
        u.cell = plan.tasks[i].cell;
        u.first_task = i;
        while (i < plan.tasks.size() && plan.tasks[i].cell == u.cell &&
               u.task_count < spec.fleet_unit_shards) {
            ++i;
            ++u.task_count;
        }
        impl->units.push_back(u);
    }
    impl->unit_settled.assign(impl->units.size(), 0);
    impl->unit_attempts.assign(impl->units.size(), 0);
    impl->telemetry.units = impl->units.size();
    impl->telemetry.unit_shards = spec.fleet_unit_shards;

    // Resume at unit granularity: a unit all of whose tasks are in
    // the checkpoint is settled (merged, never dispatched); a
    // partially covered unit — possible when resuming a checkpoint an
    // in-process run wrote — is re-dispatched whole, dropping the
    // partial entries (re-evaluation is bit-identical by design).
    Result<std::vector<CheckpointEntry>> restored =
        impl->core->loadResume();
    if (!restored.ok())
        return restored.status();
    std::vector<const OutcomeCounts*> has(plan.tasks.size(), nullptr);
    for (const CheckpointEntry& entry : restored.value())
        has[entry.task] = &entry.counts;
    std::uint64_t dropped = 0;
    for (const WorkUnit& u : impl->units) {
        const auto first = has.begin() + u.first_task;
        const auto last = first + u.task_count;
        if (std::find(first, last, nullptr) != last) {
            dropped += u.task_count - std::count(first, last, nullptr);
            impl->queue.push_back(u.unit);
            continue;
        }
        impl->unit_settled[u.unit] = 1;
        for (std::uint64_t i = u.first_task;
             i < u.first_task + u.task_count; ++i)
            impl->core->restore({i, *has[i]});
    }
    if (dropped > 0) {
        inform("fleet: re-evaluating " + std::to_string(dropped) +
               " checkpointed tasks from partially covered work units");
    }
    impl->initial_pending = impl->queue.size();
    impl->remaining.store(impl->initial_pending,
                          std::memory_order_release);

    auto out = std::unique_ptr<FleetDispatch>(new FleetDispatch());
    out->impl_ = std::move(impl);
    return out;
}

const WorkUnit&
FleetDispatch::unit(std::uint64_t u) const
{
    return impl_->units[u];
}

std::uint64_t
FleetDispatch::initialPendingUnits() const
{
    return impl_->initial_pending;
}

const CampaignPlan&
FleetDispatch::plan() const
{
    return impl_->plan();
}

void
FleetDispatch::start()
{
    Impl& d = *impl_;
    d.core->start();
    d.evaluate_span =
        std::make_unique<obs::TraceSpan>("evaluate-fleet", "campaign");
}

bool
FleetDispatch::allSettled() const
{
    return impl_->remaining.load(std::memory_order_acquire) == 0;
}

bool
FleetDispatch::waitClaim(std::uint64_t& u, Clock::duration slice)
{
    Impl& d = *impl_;
    std::unique_lock<std::mutex> lock(d.state_mutex);
    bool claimed = false;
    d.wake.wait_for(lock, slice, [&] {
        claimed = d.popLocked(u);
        return claimed ||
               d.remaining.load(std::memory_order_acquire) == 0;
    });
    return claimed;
}

Status
FleetDispatch::validateResult(const WorkerMessage& msg) const
{
    const Impl& d = *impl_;
    if (msg.unit >= d.units.size()) {
        return Status::dataLoss("result names unknown unit " +
                                std::to_string(msg.unit));
    }
    const WorkUnit& unit = d.units[msg.unit];
    if (msg.checkpoint.fingerprint != d.fingerprint ||
        msg.checkpoint.done.size() != unit.task_count) {
        return Status::dataLoss(
            "worker result doesn't match the dispatched unit");
    }
    for (const CheckpointEntry& e : msg.checkpoint.done) {
        if (e.task < unit.first_task ||
            e.task >= unit.first_task + unit.task_count) {
            return Status::dataLoss(
                "worker result entry outside its unit");
        }
        if (Status s = d.plan().checkTally(e.task, e.counts); !s.ok()) {
            return Status::dataLoss("worker " +
                                    std::to_string(msg.worker) +
                                    " unit " + std::to_string(msg.unit) +
                                    ": " + s.message());
        }
    }
    return {};
}

Status
FleetDispatch::validateUnitError(const WorkerMessage& msg,
                                 std::uint64_t in_flight) const
{
    if (msg.unit != in_flight) {
        return Status::dataLoss("unit_error names unit " +
                                std::to_string(msg.unit) +
                                ", not the unit in flight (" +
                                std::to_string(in_flight) + ")");
    }
    return {};
}

bool
FleetDispatch::completeUnit(const WorkerMessage& msg,
                            Clock::time_point dispatch_at,
                            Clock::time_point done_at)
{
    Impl& d = *impl_;
    const std::uint64_t u = msg.unit;
    const WorkUnit& unit = d.units[u];

    std::lock_guard<std::mutex> lock(d.state_mutex);
    if (d.unit_settled[u] != 0) {
        // Idempotent delivery: a host presumed dead (or a duplicated
        // wire line) re-delivered a settled unit — discard, count.
        ++d.telemetry.duplicate_results;
        return false;
    }

    std::uint64_t unit_trials = 0;
    for (const CheckpointEntry& e : msg.checkpoint.done) {
        d.core->result().cells[d.plan().tasks[e.task].cell].counts.merge(
            e.counts);
        unit_trials += e.counts.trials;
    }

    // Host credit rides the same settled-exactly-once gate as the
    // tallies, so a duplicated delivery can never double-count a
    // host's row.
    if (Impl::HostSlot* slot = d.slotForLocked(msg.worker)) {
        obs::FleetWorkerRecord& row = slot->row;
        row.units += 1;
        row.shards += unit.task_count;
        row.trials += unit_trials;
        row.busy_seconds += static_cast<double>(msg.busy_us) * 1e-6;
    }

    // Host-side busy time, parent-side wall span.
    d.core->complete(msg.checkpoint.done, msg.busy_us, dispatch_at,
                     done_at);
    d.settleLocked(u);
    return true;
}

void
FleetDispatch::failUnit(std::uint64_t u, const std::string& message)
{
    Impl& d = *impl_;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    if (d.unit_settled[u] != 0)
        return;
    d.disposeLocked(u, &message);
}

void
FleetDispatch::requeueUnit(std::uint64_t u, const std::string& why)
{
    Impl& d = *impl_;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    if (d.unit_settled[u] != 0)
        return;
    const int attempts = ++d.unit_attempts[u];
    if (attempts >= d.max_attempts) {
        // Poison: the unit took down max_attempts hosts in a row.
        // Retire it (failing its cell) instead of feeding it the rest
        // of the fleet.
        const WorkUnit& unit = d.units[u];
        const std::string message =
            "work unit " + std::to_string(u) + " (" + d.unitLabel(u) +
            ", tasks [" + std::to_string(unit.first_task) + ", " +
            std::to_string(unit.first_task + unit.task_count) +
            ")) poisoned after " + std::to_string(attempts) +
            " failed dispatch attempts; last: " + why;
        warn("fleet: " + message);
        ++d.telemetry.units_poisoned;
        d.disposeLocked(u, &message);
        return;
    }
    d.queue.push_back(u);
    d.wake.notify_all();
    ++d.telemetry.requeues;
}

void
FleetDispatch::finishInProcess()
{
    Impl& d = *impl_;
    if (interruptRequested() || allSettled())
        return;
    warn("fleet: no hosts left with " +
         std::to_string(d.remaining.load(std::memory_order_acquire)) +
         " units pending; finishing in-process");
    registerHost(-1, "parent");
    ShardBatchArena arena;
    std::uint64_t u = 0;
    while (!interruptRequested() &&
           waitClaim(u, Clock::duration::zero())) {
        const auto dispatch_at = Clock::now();
        std::uint64_t retries = 0;
        const WorkerMessage msg =
            evaluateUnit(d.plan(), d.units[u], -1, arena, retries);
        d.core->addRetries(retries);
        if (msg.kind == WorkerMessage::Kind::unit_error) {
            failUnit(u, msg.message);
            continue;
        }
        if (completeUnit(msg, dispatch_at, Clock::now())) {
            std::lock_guard<std::mutex> lock(d.state_mutex);
            d.telemetry.parent_fallback_shards += d.units[u].task_count;
        }
    }
}

void
FleetDispatch::noteWorkerLost()
{
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    ++impl_->telemetry.workers_lost;
}

void
FleetDispatch::noteWorkerTimeout()
{
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    ++impl_->telemetry.worker_timeouts;
}

void
FleetDispatch::noteHeartbeatExpiry()
{
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    ++impl_->telemetry.heartbeat_expiries;
}

void
FleetDispatch::registerHost(int worker, const std::string& label,
                            std::int64_t pid)
{
    Impl& d = *impl_;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    Impl::HostSlot slot;
    slot.row.worker = worker;
    slot.row.label = label;
    slot.row.pid = pid;
    d.hosts.push_back(std::move(slot));
}

void
FleetDispatch::closeHost(int worker, int exit_code, bool lost)
{
    Impl& d = *impl_;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    if (Impl::HostSlot* slot = d.slotForLocked(worker)) {
        slot->row.exit_code = exit_code;
        slot->row.lost = lost;
    }
}

void
FleetDispatch::absorbTelemetry(const WorkerMessage& msg)
{
    Impl& d = *impl_;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    Impl::HostSlot* slot = d.slotForLocked(msg.worker);
    if (slot == nullptr)
        return;
    for (const auto& [name, value] : msg.counters)
        accumulate(slot->row.counters, name, value);
    slot->spans.insert(slot->spans.end(), msg.spans.begin(),
                       msg.spans.end());
}

CampaignResult
FleetDispatch::finalize()
{
    Impl& d = *impl_;
    d.evaluate_span.reset();
    CampaignResult result = d.core->finish();

    {
        std::lock_guard<std::mutex> lock(d.state_mutex);
        // timing.fleet: the fault counters, and every row but the
        // in-process fallback's as the per-host audit trail. The
        // campaign counters gain fleet.units_completed — the rows'
        // unit credit, which is settled exactly once per unit — and
        // the fault counters, followed by each row's series
        // fleet.host.<label>.<name>: its units, shards and trials,
        // then the counters it shipped.
        result.fleet = d.telemetry;
        std::vector<obs::CounterValue>& counters = result.metrics.counters;
        std::uint64_t units_completed = 0;
        for (const Impl::HostSlot& slot : d.hosts)
            units_completed += slot.row.units;
        counters.push_back({"fleet.units_completed", units_completed});
        for (const obs::FleetFaultCounter& c : obs::kFleetFaultCounters)
            counters.push_back({c.metric, d.telemetry.*c.field});
        for (const Impl::HostSlot& slot : d.hosts) {
            const obs::FleetWorkerRecord& row = slot.row;
            if (row.worker >= 0)
                result.fleet.worker_records.push_back(row);
            const std::string prefix = "fleet.host." + row.label + ".";
            counters.push_back({prefix + "units", row.units});
            counters.push_back({prefix + "shards", row.shards});
            counters.push_back({prefix + "trials", row.trials});
            for (const auto& [name, value] : row.counters)
                counters.push_back({prefix + name, value});
        }
        result.fleet.workers =
            static_cast<int>(result.fleet.worker_records.size());

        // Replay each host's shipped spans onto its own trace track;
        // a forked worker stamped them on the parent's trace clock.
        if (obs::traceEnabled()) {
            for (std::size_t i = 0; i < d.hosts.size(); ++i) {
                const Impl::HostSlot& slot = d.hosts[i];
                if (slot.spans.empty())
                    continue;
                const int tid = 2000 + static_cast<int>(i);
                obs::setTrackName(tid, "host " + slot.row.label);
                for (const SpanRecord& span : slot.spans) {
                    obs::emitSpan(
                        span.name, span.cat.c_str(), span.ts_us,
                        span.dur_us,
                        "\"unit\":" + std::to_string(span.unit), tid);
                }
            }
        }
    }

    d.campaign_span.reset();
    return result;
}

} // namespace gpuecc::sim::fleet
