#include "sim/campaign.hpp"

#include <chrono>
#include <memory>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "fleet/service.hpp"
#include "obs/trace.hpp"
#include "sim/campaign_core.hpp"

namespace gpuecc::sim {

std::vector<ErrorPattern>
CampaignSpec::resolvedPatterns() const
{
    if (!patterns.empty())
        return patterns;
    const auto& all = allErrorPatterns();
    return {all.begin(), all.end()};
}

std::uint64_t
CampaignResult::totalTrials() const
{
    std::uint64_t total = 0;
    for (const CampaignCell& cell : cells)
        total += cell.counts.trials;
    return total;
}

bool
CampaignResult::hasScheme(const std::string& scheme_id) const
{
    for (const CampaignCell& cell : cells) {
        if (cell.scheme_id == scheme_id)
            return true;
    }
    return false;
}

double
CampaignResult::trialsPerSecond() const
{
    return seconds > 0.0 ? static_cast<double>(totalTrials()) / seconds
                         : 0.0;
}

const OutcomeCounts&
CampaignResult::counts(const std::string& scheme_id,
                       ErrorPattern pattern) const
{
    for (const CampaignCell& cell : cells) {
        if (cell.scheme_id == scheme_id && cell.pattern == pattern)
            return cell.counts;
    }
    fatal("CampaignResult: no cell for scheme " + scheme_id);
}

std::map<ErrorPattern, OutcomeCounts>
CampaignResult::perPattern(const std::string& scheme_id) const
{
    std::map<ErrorPattern, OutcomeCounts> out;
    for (const CampaignCell& cell : cells) {
        if (cell.scheme_id == scheme_id)
            out[cell.pattern] = cell.counts;
    }
    require(!out.empty(),
            "CampaignResult: unknown scheme " + scheme_id);
    return out;
}

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(std::move(spec))
{
    require(!spec_.scheme_ids.empty(),
            "CampaignRunner: spec names no schemes");
    require(spec_.chunk > 0, "CampaignRunner: chunk must be positive");
    require(spec_.fleet_workers >= 0 &&
                spec_.fleet_workers <= kMaxWorkers,
            "CampaignRunner: fleet workers must be in [0, " +
                std::to_string(kMaxWorkers) + "]");
    require(spec_.fleet_unit_shards > 0,
            "CampaignRunner: fleet unit must hold at least one shard");
}

CampaignResult
CampaignRunner::run() const
{
    Result<CampaignResult> result = tryRun();
    if (!result.ok())
        fatal("campaign: " + result.status().toString());
    return std::move(result).value();
}

namespace {

/** Id of the campaign.shard_micros histogram. */
obs::MetricId
shardMicrosMetric()
{
    // Registration happens here, on the first campaign's calling
    // thread, before any pool exists — the register-before-spawn
    // contract the lock-free metric hot path relies on.
    static const obs::MetricId id = obs::metrics().histogram(
        "campaign.shard_micros",
        {100, 1000, 10000, 100000, 1000000, 10000000});
    return id;
}

} // namespace

Result<CampaignResult>
CampaignRunner::tryRun() const
{
    // Fleet mode forks worker processes and must do so before this
    // process spawns any threads — the fleet service owns that
    // ordering, so hand over before the pool (or progress reporter)
    // exists.
    if (spec_.fleet_workers > 0)
        return fleet::runFleetService(spec_);

    const obs::MetricId shard_micros = shardMicrosMetric();
    obs::MetricsRegistry& reg = obs::metrics();
    obs::TraceSpan campaign_span("campaign", "campaign");

    const int threads = ThreadPool::resolveThreadCount(spec_.threads);
    Result<std::unique_ptr<CampaignCore>> created = CampaignCore::create(
        spec_, CampaignCore::Driver::inProcess, threads,
        static_cast<std::uint64_t>(threads));
    if (!created.ok())
        return created.status();
    CampaignCore& core = *created.value();
    const CampaignPlan& plan = core.plan();
    Result<std::vector<CheckpointEntry>> restored = core.loadResume();
    if (!restored.ok())
        return restored.status();
    for (const CheckpointEntry& entry : restored.value())
        core.restore(entry);
    core.start();

    // Per-worker execution state: the batched kernel's SoA scratch
    // plus one tally accumulator per cell, all in one cache-line-
    // aligned WorkerArena slot so no two workers ever write the same
    // line on the hot path. Created with the pool (below); the body
    // reaches it through this pointer.
    struct WorkerState
    {
        ShardBatchArena batch;
        std::vector<OutcomeCounts> cells;
    };
    WorkerArena<WorkerState>* worker_states = nullptr;

    // The pool runs shard groups: task j of every scheme covers the
    // same shard, so group j draws its masks once for all of them.
    const std::uint64_t groups = plan.groupCount();
    auto body = [&](std::uint64_t j) {
        if (interruptRequested())
            return;
        std::vector<std::uint64_t> group;
        for (std::uint64_t i = j; i < plan.tasks.size(); i += groups) {
            if (core.restored(i))
                continue;
            const std::size_t cell = plan.tasks[i].cell;
            if (core.cellFailed(cell)) {
                core.skip(cell, 1);
                continue;
            }
            group.push_back(i);
        }
        if (group.empty())
            return;

        const Shard& shard = plan.tasks[j].shard;
        obs::TraceSpan span(patternInfo(shard.pattern).label, "shard");
        span.arg("group", j)
            .arg("schemes", group.size())
            .arg("begin", shard.begin)
            .arg("end", shard.end);

        const auto shard_start = std::chrono::steady_clock::now();
        WorkerState& ws = worker_states->local();
        std::vector<Result<OutcomeCounts>> counts =
            plan.evaluateGroup(group, ws.batch);
        const auto shard_stop = std::chrono::steady_clock::now();
        // Each task is charged an equal share of the group's time:
        // one shard_micros observation per task, and the per-scheme
        // busy seconds split the same way.
        const std::uint64_t task_us =
            microsBetween(shard_start, shard_stop) / group.size();
        for (std::size_t k = 0; k < group.size(); ++k) {
            const std::uint64_t i = group[k];
            const std::size_t cell = plan.tasks[i].cell;
            if (!counts[k].ok()) {
                core.fail(cell, 1, counts[k].status().message());
                continue;
            }
            // Tallies land in the worker's own aligned accumulator.
            ws.cells[cell].merge(counts[k].value());
            // Telemetry: thread-local metric shards only.
            reg.observe(shard_micros, task_us);
            core.complete({{i, counts[k].value()}}, task_us,
                          shard_start, shard_stop);
        }
    };

    CampaignResult& result = core.result();
    {
        obs::TraceSpan span("evaluate", "campaign");
        ThreadPool pool(threads);
        WorkerArena<WorkerState> states(pool);
        for (int w = 0; w < states.size(); ++w)
            states.at(w).cells.resize(result.cells.size());
        worker_states = &states;
        pool.parallelFor(groups, body);
        ThreadPool::Stats pool_stats = pool.stats();
        result.pool.threads = threads;
        result.pool.tasks_executed = pool_stats.tasks_executed;
        result.pool.steals = pool_stats.steals;
        result.pool.busy_seconds = pool_stats.busy_seconds;
        result.pool.wall_seconds = pool_stats.wall_seconds;
        result.pool.worker_busy_seconds =
            std::move(pool_stats.worker_busy_seconds);
        // Merge the per-worker accumulators in worker order; the
        // outcome is order-independent (commutative merge), and
        // workers that ran nothing hold empty accumulators whose
        // default non-exhaustive flag must not dilute enumerable
        // cells, hence the trials guard. Tasks skipped by an
        // interrupt or a failed scheme contributed nothing.
        obs::TraceSpan merge_span("merge", "campaign");
        for (int w = 0; w < states.size(); ++w) {
            const std::vector<OutcomeCounts>& cells =
                states.at(w).cells;
            for (std::size_t c = 0; c < cells.size(); ++c) {
                if (cells[c].trials > 0)
                    result.cells[c].counts.merge(cells[c]);
            }
        }
        worker_states = nullptr;
    }
    return core.finish();
}

} // namespace gpuecc::sim
