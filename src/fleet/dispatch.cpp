#include "fleet/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "obs/exposition.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "sim/campaign_core.hpp"
#include "sim/report.hpp"

namespace gpuecc::sim::fleet {

namespace {

/** Ids of the fleet.* registry metrics, registered once per process. */
struct FleetMetricIds
{
    obs::MetricId units_completed;
    /** High-water queue depth (gauges merge by maximum). */
    obs::MetricId queue_depth;
};

const FleetMetricIds&
fleetMetricIds()
{
    // Register before the liaison threads exist — the same
    // register-before-spawn contract the campaign metrics follow.
    static const FleetMetricIds ids = [] {
        obs::MetricsRegistry& m = obs::metrics();
        FleetMetricIds out;
        out.units_completed = m.counter("fleet.units_completed");
        out.queue_depth = m.gauge("fleet.queue_depth");
        return out;
    }();
    return ids;
}

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
    CampaignSpec spec;
    std::unique_ptr<CampaignCore> core;
    /** The plan's fingerprint: the config line's plan-identity proof. */
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

    /**
     * One ledger row per host *connection* (a reconnecting agent gets
     * a new row; hostSeries merges rows by label), plus what replaying
     * its spans needs. Guarded by state_mutex.
     */
    struct HostSlot
    {
        obs::FleetWorkerRecord row;
        /** Shipped spans, timestamps in the host's config clock. */
        std::vector<SpanRecord> spans;
        std::chrono::steady_clock::time_point config_sent_at;
        std::uint64_t config_sent_trace_us = 0;
        /**
         * Best (minimum) observed "server µs since config send minus
         * host µs since config receipt" — converges on the one-way
         * config delivery latency, the wall-clock correction remote
         * span timestamps need.
         */
        bool has_offset = false;
        std::int64_t min_offset_us = 0;
    };
    std::vector<HostSlot> hosts; // state_mutex

    /** The --journal event stream (null when not journaling). */
    std::unique_ptr<obs::EventJournal> journal;

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
     * ran, but its shards are disposed of, so the progress line and
     * /status reach 100% even when a cell fails. State_mutex held.
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
            obs::metrics().setGauge(
                fleetMetricIds().queue_depth,
                static_cast<std::int64_t>(queue.size()));
            if (unit_settled[candidate] != 0)
                continue; // a late result beat the requeue to it
            if (core->cellFailed(units[candidate].cell)) {
                // Its cell already failed: settle it silently (the
                // checkpoint just never lists its tasks).
                disposeLocked(candidate, nullptr);
                journalAppend("skip", {}, {{"unit", candidate}});
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

    /** Append to the journal if one is open (any thread, any locks). */
    void journalAppend(const std::string& event,
                       const obs::EventJournal::Fields& fields = {},
                       const obs::EventJournal::Nums& nums = {})
    {
        if (journal)
            journal->append(event, fields, nums);
    }

    /** Latest slot registered for @p worker; state_mutex held. */
    HostSlot* slotForLocked(int worker)
    {
        for (auto it = hosts.rbegin(); it != hosts.rend(); ++it)
            if (it->row.worker == worker)
                return &*it;
        return nullptr;
    }

    /** Host label for journal events; state_mutex held. */
    std::string hostLabelLocked(int worker)
    {
        const HostSlot* slot = slotForLocked(worker);
        if (slot != nullptr)
            return slot->row.label;
        return "worker-" + std::to_string(worker);
    }

    /** Fold one now_us report into the offset; state_mutex held. */
    void clockSampleLocked(HostSlot& slot, std::uint64_t now_us)
    {
        if (now_us == 0)
            return;
        const std::int64_t elapsed = static_cast<std::int64_t>(
            microsBetween(slot.config_sent_at,
                        std::chrono::steady_clock::now()));
        const std::int64_t offset =
            elapsed - static_cast<std::int64_t>(now_us);
        if (!slot.has_offset || offset < slot.min_offset_us) {
            slot.has_offset = true;
            slot.min_offset_us = offset;
        }
    }
};

FleetDispatch::~FleetDispatch() = default;

Result<std::unique_ptr<FleetDispatch>>
FleetDispatch::create(const CampaignSpec& spec)
{
    auto impl = std::make_unique<Impl>();
    impl->spec = spec;
    impl->max_attempts = std::max(1, spec.fleet_max_unit_attempts);

    if (!spec.journal_path.empty()) {
        auto journal = obs::EventJournal::open(spec.journal_path);
        if (!journal.ok())
            return journal.status();
        impl->journal = std::move(journal).value();
    }

    fleetMetricIds();
    impl->campaign_span = std::make_unique<obs::TraceSpan>(
        "fleet-campaign", "campaign");

    // Size shards so every host can hold whole units. Without a
    // listen address the worker count is exact; the socket service
    // cannot know how many agents will ever join, so it plans for a
    // reasonable floor — the two modes therefore fingerprint
    // differently (documented; tallies are chunk-invariant, so the
    // CSV is identical either way). Evaluation happens in
    // single-threaded hosts, so the result truthfully reports one
    // thread, not pool parallelism that never existed.
    const std::uint64_t workers =
        static_cast<std::uint64_t>(spec.fleet_workers);
    const std::uint64_t width =
        spec.fleet_listen.empty() ? workers
                                  : std::max<std::uint64_t>(workers, 8);
    const std::uint64_t slots = std::min<std::uint64_t>(
        width * spec.fleet_unit_shards, std::uint64_t{1} << 20);
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

FleetConfig
FleetDispatch::configFor(int worker) const
{
    const CampaignPlan& plan = impl_->plan();
    FleetConfig config;
    config.worker = worker;
    config.scheme_ids = plan.ids;
    config.patterns = plan.patterns;
    config.samples = plan.samples;
    config.seed = plan.seed;
    config.chunk = plan.chunk;
    config.fingerprint = impl_->fingerprint;
    config.codec_backend = impl_->core->result().codec_backend;
    return config;
}

void
FleetDispatch::start()
{
    Impl& d = *impl_;
    d.core->start();
    d.evaluate_span =
        std::make_unique<obs::TraceSpan>("evaluate-fleet", "campaign");
    d.journalAppend(
        "start", {},
        {{"units", d.units.size()},
         {"pending", d.initial_pending},
         {"resumed", d.units.size() - d.initial_pending},
         {"shards", d.plan().tasks.size()}});
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
        d.journalAppend("duplicate", {}, {{"unit", u}});
        return false;
    }

    std::uint64_t unit_trials = 0;
    for (const CheckpointEntry& e : msg.checkpoint.done) {
        d.core->result().cells[d.plan().tasks[e.task].cell].counts.merge(
            e.counts);
        unit_trials += e.counts.trials;
    }
    obs::metrics().add(fleetMetricIds().units_completed);

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
    d.journalAppend("result", {{"host", d.hostLabelLocked(msg.worker)}},
                    {{"unit", u},
                     {"shards", unit.task_count},
                     {"trials", unit_trials},
                     {"busy_us", msg.busy_us}});

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
    d.journalAppend("unit_error", {{"error", message.substr(0, 200)}},
                    {{"unit", u}});
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
        d.journalAppend(
            "poison", {},
            {{"unit", u},
             {"attempts", static_cast<std::uint64_t>(attempts)}});
        d.disposeLocked(u, &message);
        return;
    }
    d.queue.push_back(u);
    d.wake.notify_all();
    ++d.telemetry.requeues;
    d.journalAppend(
        "requeue", {},
        {{"unit", u},
         {"attempts", static_cast<std::uint64_t>(attempts)}});
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
    registerHost(-1, "parent", false);
    d.journalAppend(
        "fallback", {},
        {{"remaining",
          d.remaining.load(std::memory_order_acquire)}});
    const CampaignPlan& plan = d.plan();
    ShardBatchArena arena;
    std::uint64_t u = 0;
    while (!interruptRequested() &&
           waitClaim(u, Clock::duration::zero())) {
        const WorkUnit& unit = d.units[u];
        const auto dispatch_at = std::chrono::steady_clock::now();
        WorkerMessage msg;
        msg.unit = unit.unit;
        msg.worker = -1;
        Status failure;
        for (std::uint64_t i = unit.first_task;
             i < unit.first_task + unit.task_count && failure.ok();
             ++i) {
            Result<OutcomeCounts> counts = plan.evaluateTask(i, arena);
            if (counts.ok())
                msg.checkpoint.done.push_back({i, counts.value()});
            else
                failure = counts.status();
        }
        const auto done_at = std::chrono::steady_clock::now();
        msg.busy_us = microsBetween(dispatch_at, done_at);
        if (!failure.ok()) {
            failUnit(u, failure.message());
            continue;
        }
        if (completeUnit(msg, dispatch_at, done_at)) {
            std::lock_guard<std::mutex> lock(d.state_mutex);
            d.telemetry.parent_fallback_shards += unit.task_count;
        }
    }
}

void
FleetDispatch::noteWorkerLost()
{
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    ++impl_->telemetry.workers_lost;
    impl_->journalAppend("host_lost");
}

void
FleetDispatch::noteWorkerTimeout()
{
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    ++impl_->telemetry.worker_timeouts;
    impl_->journalAppend("timeout");
}

void
FleetDispatch::noteHeartbeatExpiry()
{
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    ++impl_->telemetry.heartbeat_expiries;
    impl_->journalAppend("expiry");
}

void
FleetDispatch::noteAuthFailure()
{
    std::lock_guard<std::mutex> lock(impl_->state_mutex);
    ++impl_->telemetry.auth_failures;
    impl_->journalAppend("auth_fail");
}

void
FleetDispatch::registerHost(int worker, const std::string& label,
                            bool remote, std::int64_t pid)
{
    Impl& d = *impl_;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    Impl::HostSlot slot;
    slot.row.worker = worker;
    slot.row.label = label;
    slot.row.pid = pid;
    slot.row.remote = remote;
    if (remote)
        slot.row.agent = label;
    slot.config_sent_at = std::chrono::steady_clock::now();
    slot.config_sent_trace_us = obs::traceNowUs();
    d.hosts.push_back(std::move(slot));
    if (remote)
        ++d.telemetry.agents_connected;
    d.journalAppend("connect", {{"host", label}},
                    {{"remote", std::uint64_t{remote ? 1u : 0u}}});
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
FleetDispatch::noteUnitDispatched(std::uint64_t u, int worker)
{
    Impl& d = *impl_;
    if (!d.journal)
        return;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    d.journalAppend("dispatch",
                    {{"host", d.hostLabelLocked(worker)}},
                    {{"unit", u}});
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
    d.clockSampleLocked(*slot, msg.now_us);
}

DispatchStatus
FleetDispatch::status() const
{
    Impl& d = *impl_;
    DispatchStatus s;
    s.units_total = d.units.size();
    s.units_resumed = d.units.size() - d.initial_pending;
    s.shards_total = d.plan().tasks.size();
    s.shards_done = d.core->shardsDone();
    s.trials_done = d.core->trialsDone();
    s.elapsed_seconds = d.core->elapsedSeconds();
    std::lock_guard<std::mutex> lock(d.state_mutex);
    const std::uint64_t pending =
        d.remaining.load(std::memory_order_acquire);
    const std::uint64_t live = d.initial_pending - pending;
    s.units_settled = s.units_resumed + live;
    s.fleet = d.telemetry;
    s.queue_depth = d.queue.size();
    s.units_in_flight =
        pending > s.queue_depth ? pending - s.queue_depth : 0;
    if (s.elapsed_seconds > 0.0 && live > 0) {
        s.units_per_second = static_cast<double>(live) / s.elapsed_seconds;
        s.eta_seconds = static_cast<double>(pending) / s.units_per_second;
    }
    for (const Impl::HostSlot& slot : d.hosts)
        s.hosts.push_back(slot.row);
    return s;
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
        // in-process fallback's as the per-host audit trail.
        result.fleet = d.telemetry;
        std::vector<obs::FleetWorkerRecord> rows;
        for (const Impl::HostSlot& slot : d.hosts) {
            rows.push_back(slot.row);
            if (slot.row.worker >= 0)
                result.fleet.worker_records.push_back(slot.row);
        }
        result.fleet.workers =
            static_cast<int>(result.fleet.worker_records.size());

        // Replay each host's shipped spans onto its own trace track,
        // rebased from "µs since config receipt" to the parent's
        // trace clock via the minimum-latency offset.
        if (obs::traceEnabled()) {
            for (std::size_t i = 0; i < d.hosts.size(); ++i) {
                const Impl::HostSlot& slot = d.hosts[i];
                if (slot.spans.empty())
                    continue;
                const int tid = 2000 + static_cast<int>(i);
                obs::setTrackName(tid, "host " + slot.row.label);
                const std::int64_t base =
                    static_cast<std::int64_t>(
                        slot.config_sent_trace_us) +
                    (slot.has_offset ? slot.min_offset_us : 0);
                for (const SpanRecord& span : slot.spans) {
                    std::int64_t ts =
                        base + static_cast<std::int64_t>(span.ts_us);
                    if (ts < 0)
                        ts = 0;
                    obs::emitSpan(
                        span.name, span.cat.c_str(),
                        static_cast<std::uint64_t>(ts), span.dur_us,
                        "\"unit\":" + std::to_string(span.unit), tid);
                }
            }
        }

        // The fault counters and the host series join the campaign
        // counters, rendered from the same ledger as /metrics.
        for (const obs::FleetFaultCounter& c : obs::kFleetFaultCounters)
            result.metrics.counters.push_back(
                {c.metric, result.fleet.*c.field});
        for (const HostSample& h : hostSeries(rows))
            result.metrics.counters.push_back(
                {"fleet.host." + h.label + "." + h.name, h.value});
    }

    d.journalAppend(
        "drain", {},
        {{"settled",
          d.units.size() - d.remaining.load(std::memory_order_acquire)},
         {"interrupted",
          std::uint64_t{result.interrupted ? 1u : 0u}}});

    d.campaign_span.reset();
    return result;
}

std::vector<HostSample>
hostSeries(const std::vector<obs::FleetWorkerRecord>& hosts)
{
    std::vector<obs::FleetWorkerRecord> merged;
    for (const obs::FleetWorkerRecord& h : hosts) {
        auto it = std::find_if(
            merged.begin(), merged.end(),
            [&](const auto& m) { return m.label == h.label; });
        if (it == merged.end()) {
            merged.push_back(h);
            continue;
        }
        it->units += h.units;
        it->shards += h.shards;
        it->trials += h.trials;
        for (const auto& [name, value] : h.counters)
            accumulate(it->counters, name, value);
    }
    std::vector<HostSample> out;
    for (const obs::FleetWorkerRecord& m : merged) {
        out.push_back({m.label, "units", m.units});
        out.push_back({m.label, "shards", m.shards});
        out.push_back({m.label, "trials", m.trials});
        for (const auto& [name, value] : m.counters)
            out.push_back({m.label, name, value});
    }
    return out;
}

std::string
statusJson(const DispatchStatus& s)
{
    JsonWriter w;
    w.beginObject();
    w.key("units").beginObject();
    w.kv("total", s.units_total);
    w.kv("settled", s.units_settled);
    w.kv("resumed", s.units_resumed);
    w.kv("in_flight", s.units_in_flight);
    w.kv("queue_depth", s.queue_depth);
    w.endObject();
    w.key("shards").beginObject();
    w.kv("total", s.shards_total);
    w.kv("done", s.shards_done);
    w.endObject();
    w.kv("trials_done", s.trials_done);
    w.key("fleet").beginObject();
    for (const obs::FleetFaultCounter& c : obs::kFleetFaultCounters)
        w.kv(c.key, s.fleet.*c.field);
    w.endObject();
    w.kv("elapsed_seconds", s.elapsed_seconds);
    w.kv("units_per_second", s.units_per_second);
    w.kv("eta_seconds", s.eta_seconds);
    w.key("hosts").beginArray();
    for (const obs::FleetWorkerRecord& h : s.hosts) {
        w.beginObject();
        writeFleetWorkerRecord(w, h);
        w.kv("units_per_second",
             s.elapsed_seconds > 0.0
                 ? static_cast<double>(h.units) / s.elapsed_seconds
                 : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
statusMetricsText(const DispatchStatus& s)
{
    std::vector<obs::PromSample> samples = {
        {"fleet.units_total", s.units_total},
        {"fleet.units_settled", s.units_settled},
        {"fleet.units_in_flight", s.units_in_flight},
        {"fleet.shards_total", s.shards_total},
        {"fleet.shards_done", s.shards_done},
        {"fleet.trials_done", s.trials_done},
    };
    for (const obs::FleetFaultCounter& c : obs::kFleetFaultCounters)
        samples.push_back({c.metric, s.fleet.*c.field});
    for (const HostSample& h : hostSeries(s.hosts))
        samples.push_back({"fleet.host." + h.name, h.value, h.label});
    return obs::renderPrometheusText(samples);
}

} // namespace gpuecc::sim::fleet
