#include "sim/campaign.hpp"

#include <chrono>
#include <memory>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "net/service.hpp"
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
    require(spec_.fleet_workers >= 0 && spec_.fleet_workers <= 4096,
            "CampaignRunner: fleet workers must be in [0, 4096]");
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
    if (spec_.fleet_workers > 0 || !spec_.fleet_listen.empty())
        return net::runFleetService(spec_);

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

    auto body = [&](std::uint64_t i) {
        if (core.restored(i) || interruptRequested())
            return;
        const PlanTask& t = plan.tasks[i];
        if (core.cellFailed(t.cell)) {
            core.skip(t.cell, 1);
            return;
        }

        obs::TraceSpan span(patternInfo(t.shard.pattern).label,
                            "shard");
        span.arg("scheme", plan.ids[plan.schemeOf(i)])
            .arg("task", i)
            .arg("begin", t.shard.begin)
            .arg("end", t.shard.end);

        const auto shard_start = std::chrono::steady_clock::now();
        WorkerState& ws = worker_states->local();
        Result<OutcomeCounts> counts = plan.evaluateTask(i, ws.batch);
        if (!counts.ok()) {
            core.fail(t.cell, 1, counts.status().message());
            return;
        }
        const auto shard_stop = std::chrono::steady_clock::now();
        // Tallies land in the worker's own aligned accumulator.
        ws.cells[t.cell].merge(counts.value());

        // Telemetry: thread-local metric shards only.
        const std::uint64_t shard_us =
            microsBetween(shard_start, shard_stop);
        reg.observe(shard_micros, shard_us);
        core.complete({{i, counts.value()}}, shard_us, shard_start,
                      shard_stop);
    };

    CampaignResult& result = core.result();
    {
        obs::TraceSpan span("evaluate", "campaign");
        ThreadPool pool(threads, spec_.affinity);
        result.pool.affinity = pool.affinityApplied();
        WorkerArena<WorkerState> states(pool);
        for (int w = 0; w < states.size(); ++w)
            states.at(w).cells.resize(result.cells.size());
        worker_states = &states;
        pool.parallelFor(plan.tasks.size(), body);
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
