#include "sim/campaign_core.hpp"

#include <algorithm>
#include <exception>
#include <set>
#include <utility>

#include "common/codec_mode.hpp"
#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "ecc/registry.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"

namespace gpuecc::sim {

namespace {

void
atomicMin(std::atomic<std::uint64_t>& slot, std::uint64_t value)
{
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (value < cur &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<std::uint64_t>& slot, std::uint64_t value)
{
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (value > cur &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

Result<CampaignPlan>
CampaignPlan::build(const std::vector<std::string>& scheme_ids,
                    const std::vector<ErrorPattern>& patterns,
                    std::uint64_t samples, std::uint64_t seed,
                    std::uint64_t chunk,
                    std::vector<CampaignError>& skipped)
{
    CampaignPlan plan;
    plan.patterns = patterns;
    plan.samples = samples;
    plan.seed = seed;
    plan.chunk = chunk;
    // decode() is const and thread-safe, so one scheme instance serves
    // every worker.
    for (const std::string& id : scheme_ids) {
        // Covers codec (table) construction.
        obs::TraceSpan span("codec:" + id, "codec");
        Result<std::shared_ptr<EntryScheme>> scheme = findScheme(id);
        if (!scheme.ok()) {
            warn("campaign: skipping scheme " + id + ": " +
                 scheme.status().toString());
            skipped.push_back({id, scheme.status().toString()});
            continue;
        }
        plan.schemes.push_back(scheme.value());
        plan.ids.push_back(id);
    }
    if (plan.schemes.empty())
        return Status::notFound(
            "no scheme in the spec could be constructed");

    obs::TraceSpan span("plan", "campaign");
    for (std::size_t s = 0; s < plan.schemes.size(); ++s) {
        for (std::size_t p = 0; p < patterns.size(); ++p) {
            const std::size_t cell = s * patterns.size() + p;
            for (const Shard& shard :
                 planShards(patterns[p], samples, chunk))
                plan.tasks.push_back({cell, shard});
        }
    }
    return plan;
}

std::string
CampaignPlan::fingerprint() const
{
    return campaignFingerprint(ids, patterns, samples, seed, chunk,
                               codecBackendName(), tasks.size());
}

Status
CampaignPlan::checkTally(std::uint64_t task,
                         const OutcomeCounts& counts) const
{
    if (task >= tasks.size()) {
        return Status::dataLoss("task " + std::to_string(task) +
                                " is outside the plan");
    }
    const Shard& shard = tasks[task].shard;
    const bool enumerable = patternIsEnumerable(shard.pattern);
    if (counts.exhaustive != enumerable ||
        (!enumerable && counts.trials != shard.end - shard.begin)) {
        return Status::dataLoss("task " + std::to_string(task) +
                                " tallies don't match its shard");
    }
    return {};
}

std::vector<Result<OutcomeCounts>>
CampaignPlan::evaluateGroup(std::span<const std::uint64_t> group,
                            ShardBatchArena& arena,
                            std::uint64_t& retries) const
{
    const std::uint64_t j = group.front() % groupCount();
    const Shard& shard = tasks[j].shard;
    // First attempt: each task's chaos hook, then one kernel call for
    // every task whose hook passed.
    std::vector<Result<OutcomeCounts>> out;
    std::vector<SchemeTally> tallies;
    out.reserve(group.size());
    tallies.reserve(group.size());
    for (const std::uint64_t task : group) {
        require(task % groupCount() == j,
                "evaluateGroup: tasks of different shard groups");
        try {
            chaosOnTaskAttempt(task);
            const std::size_t s = schemeOf(task);
            tallies.push_back({schemes[s].get(), {}});
            out.push_back(OutcomeCounts{});
        } catch (const std::exception& e) {
            out.push_back(Status::internalError(e.what()));
        }
    }
    try {
        if (!tallies.empty())
            evaluateShardBatched(tallies, seed, shard, arena);
        std::size_t next = 0;
        for (Result<OutcomeCounts>& r : out) {
            if (r.ok())
                r = tallies[next++].counts;
        }
    } catch (const std::exception& e) {
        // The culprit is unknown: every task of the call retries on
        // its own.
        for (Result<OutcomeCounts>& r : out) {
            if (r.ok())
                r = Status::internalError(e.what());
        }
    }

    // Transient faults (chaos, OOM churn) get one retry; a second
    // failure fails the task's cell, not the campaign.
    for (std::size_t k = 0; k < group.size(); ++k) {
        if (out[k].ok())
            continue;
        const std::uint64_t task = group[k];
        ++retries;
        warn("campaign: shard task " + std::to_string(task) +
             " failed (" + out[k].status().message() +
             "); retrying once");
        try {
            chaosOnTaskAttempt(task);
            SchemeTally tally{schemes[schemeOf(task)].get(), {}};
            evaluateShardBatched({&tally, 1}, seed, shard, arena);
            out[k] = tally.counts;
        } catch (const std::exception& second) {
            out[k] = Status::internalError(
                "shard task " + std::to_string(task) +
                " failed twice: " + second.what());
        }
    }
    return out;
}

Result<OutcomeCounts>
CampaignPlan::evaluateTask(std::uint64_t task, ShardBatchArena& arena,
                           std::uint64_t& retries) const
{
    return std::move(evaluateGroup({&task, 1}, arena, retries).front());
}

/** Per-scheme clocks; µs since evaluation start. */
struct CampaignCore::SchemeClock
{
    std::atomic<std::uint64_t> busy_us{0};
    std::atomic<std::uint64_t> trials{0};
    std::atomic<std::uint64_t> shards{0};
    std::atomic<std::uint64_t> first_us{~std::uint64_t{0}};
    std::atomic<std::uint64_t> last_us{0};
    /** Tasks not yet disposed of; 0 means the scheme is done. */
    std::atomic<std::uint64_t> pending{0};
};

CampaignCore::~CampaignCore()
{
    // A driver that threw between start() and finish() still joins
    // the writer (a joinable std::thread would terminate).
    stopWriter();
}

Result<std::unique_ptr<CampaignCore>>
CampaignCore::create(const CampaignSpec& spec, Driver driver,
                     int threads, std::uint64_t width)
{
    auto core = std::unique_ptr<CampaignCore>(new CampaignCore());
    CampaignCore& c = *core;
    c.name_ = driver == Driver::fleet ? "fleet" : "campaign";

    CampaignResult& result = c.result_;
    result.spec = spec;
    result.spec.threads = threads;
    result.codec_backend = codecBackendName();

    // The chunk may shrink so short runs still feed every slot;
    // tallies are chunk-invariant, so the report is unaffected. The
    // fingerprint records the *effective* chunk: it fixes the task
    // indexing a checkpoint records and, unlike the requested chunk,
    // can differ between two invocations of the same spec.
    Result<CampaignPlan> plan = CampaignPlan::build(
        spec.scheme_ids, spec.resolvedPatterns(), spec.samples,
        spec.seed,
        effectiveShardChunk(spec.samples, spec.chunk,
                            static_cast<int>(width)),
        result.errors);
    if (!plan.ok())
        return plan.status();
    c.plan_ = std::move(plan).value();
    for (const std::string& id : c.plan_.ids) {
        for (ErrorPattern p : c.plan_.patterns)
            result.cells.push_back({id, p, OutcomeCounts{}});
    }
    result.shards = c.plan_.tasks.size();

    c.restored_.assign(c.plan_.tasks.size(), 0);
    c.cell_failed_.reset(new std::atomic<bool>[result.cells.size()]);
    for (std::size_t i = 0; i < result.cells.size(); ++i)
        c.cell_failed_[i].store(false, std::memory_order_relaxed);
    c.clocks_.reset(new SchemeClock[c.plan_.schemes.size()]);

    c.checkpointing_ = !spec.checkpoint_path.empty();
    if (c.checkpointing_) {
        // From here on SIGINT/SIGTERM mean "finish in-flight shards,
        // flush, exit" rather than dying mid-write.
        installInterruptHandlers();
        c.fingerprint_ = c.plan_.fingerprint();
        c.ledger_.resize(c.plan_.tasks.size());
        const obs::BuildInfo build = obs::buildInfo();
        c.ckpt_manifest_.push_back({"threads", std::to_string(threads)});
        if (driver == Driver::fleet)
            c.ckpt_manifest_.push_back(
                {"fleet_workers", std::to_string(spec.fleet_workers)});
        c.ckpt_manifest_.insert(
            c.ckpt_manifest_.end(),
            {{"codec_backend", result.codec_backend},
             {"build_type", build.build_type},
             {"compiler", build.compiler},
             {"platform", build.platform},
             {"chaos", obs::chaosEnvText()}});
    }
    return core;
}

Result<std::vector<CheckpointEntry>>
CampaignCore::loadResume()
{
    if (!checkpointing_ || !result_.spec.resume)
        return std::vector<CheckpointEntry>{};
    obs::TraceSpan span("resume-load", "campaign");
    const std::string& path = result_.spec.checkpoint_path;
    Result<CampaignCheckpoint> loaded = loadCheckpoint(path);
    if (loaded.status().code() == ErrorCode::notFound) {
        inform(name_ + ": no checkpoint at " + path +
               "; starting fresh");
        return std::vector<CheckpointEntry>{};
    }
    if (!loaded.ok())
        return loaded.status();
    CampaignCheckpoint& ckpt = loaded.value();
    if (ckpt.fingerprint != fingerprint_) {
        return Status::failedPrecondition(
            "checkpoint " + path +
            " was written by a different campaign\n  theirs: " +
            ckpt.fingerprint + "\n  ours:   " + fingerprint_);
    }
    for (const CheckpointEntry& entry : ckpt.done) {
        if (Status s = plan_.checkTally(entry.task, entry.counts);
            !s.ok())
            return Status::dataLoss("checkpoint " + path + ": " +
                                    s.message());
    }
    resume_found_ = true;
    return std::move(ckpt.done);
}

void
CampaignCore::restore(const CheckpointEntry& entry)
{
    // Restored tallies merge into their cell right away; merge order
    // against the fresh shards is irrelevant (commutative,
    // associative, same exactness per cell).
    result_.cells[plan_.tasks[entry.task].cell].counts.merge(
        entry.counts);
    restored_[entry.task] = 1;
    ++result_.resumed_shards;
    std::lock_guard<std::mutex> lock(mutex_);
    if (checkpointing_)
        ledger_[entry.task] = entry.counts;
}

void
CampaignCore::start()
{
    require(!started_, name_ + ": campaign started twice");
    started_ = true;
    if (resume_found_) {
        inform(name_ + ": resumed " +
               std::to_string(result_.resumed_shards) + " of " +
               std::to_string(plan_.tasks.size()) +
               " shard tasks from " + result_.spec.checkpoint_path);
    }
    // The progress denominator and the per-scheme countdowns cover
    // only the work this run will evaluate (restored tasks excluded).
    for (std::uint64_t i = 0; i < plan_.tasks.size(); ++i) {
        if (restored_[i] != 0)
            continue;
        clocks_[plan_.schemeOf(i)].pending.fetch_add(
            1, std::memory_order_relaxed);
        ++planned_;
    }
    progress_ = std::make_unique<obs::ProgressReporter>(
        result_.spec.progress, [this] { return progress(); });
    cpu_start_ =
        obs::processCpuSeconds() + obs::processChildrenCpuSeconds();
    start_at_ = Clock::now();
    trace_eval_start_us_ = obs::traceNowUs();
    if (checkpointing_)
        writer_ = std::thread([this] { writeCheckpoints(); });
}

void
CampaignCore::complete(const std::vector<CheckpointEntry>& entries,
                       std::uint64_t busy_us, Clock::time_point began,
                       Clock::time_point ended)
{
    if (entries.empty())
        return;
    // The clock is the one count of this run's evaluated tasks and
    // trials. Relaxed atomics only: nothing here can reorder work or
    // touch the tallies.
    SchemeClock& clock = clocks_[plan_.schemeOf(entries.front().task)];
    std::uint64_t trials = 0;
    for (const CheckpointEntry& e : entries)
        trials += e.counts.trials;
    clock.busy_us.fetch_add(busy_us, std::memory_order_relaxed);
    clock.trials.fetch_add(trials, std::memory_order_relaxed);
    clock.shards.fetch_add(entries.size(), std::memory_order_relaxed);
    atomicMin(clock.first_us, microsBetween(start_at_, began));
    atomicMax(clock.last_us, microsBetween(start_at_, ended));
    clock.pending.fetch_sub(entries.size(), std::memory_order_relaxed);

    if (checkpointing_) {
        bool wake_writer = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const CheckpointEntry& e : entries)
                ledger_[e.task] = e.counts;
            wake_writer = !std::exchange(dirty_, true);
        }
        if (wake_writer)
            writer_wake_.notify_one();
    }
    chaosOnTaskDone(completedTasks());
}

void
CampaignCore::fail(std::size_t cell, std::uint64_t tasks,
                   const std::string& message)
{
    cell_failed_[cell].store(true, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cell_errors_.emplace_back(cell, message);
    }
    skip(cell, tasks);
}

void
CampaignCore::skip(std::size_t cell, std::uint64_t tasks)
{
    clocks_[cell / plan_.patterns.size()].pending.fetch_sub(
        tasks, std::memory_order_relaxed);
}

void
CampaignCore::addRetries(std::uint64_t retries)
{
    if (retries == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    shard_retries_ += retries;
}

obs::ProgressSample
CampaignCore::progress() const
{
    obs::ProgressSample sample;
    sample.totals = {planned_, plan_.schemes.size()};
    std::uint64_t pending = 0;
    for (std::size_t s = 0; s < plan_.schemes.size(); ++s) {
        const SchemeClock& clock = clocks_[s];
        const std::uint64_t left =
            clock.pending.load(std::memory_order_relaxed);
        pending += left;
        sample.trials_done +=
            clock.trials.load(std::memory_order_relaxed);
        if (left == 0)
            ++sample.schemes_done;
    }
    sample.shards_done = planned_ - pending;
    return sample;
}

std::uint64_t
CampaignCore::completedTasks() const
{
    std::uint64_t tasks = 0;
    for (std::size_t s = 0; s < plan_.schemes.size(); ++s)
        tasks += clocks_[s].shards.load(std::memory_order_relaxed);
    return tasks;
}

double
CampaignCore::elapsedSeconds() const
{
    return started_ ? std::chrono::duration<double>(Clock::now() -
                                                    start_at_)
                          .count()
                    : 0.0;
}

Status
CampaignCore::flush()
{
    obs::TraceSpan span("checkpoint-flush", "checkpoint");
    Status s;
    try {
        CampaignCheckpoint ckpt;
        ckpt.fingerprint = fingerprint_;
        ckpt.manifest = ckpt_manifest_;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            dirty_ = false;
            ckpt.done.reserve(result_.resumed_shards + completedTasks());
            for (std::uint64_t i = 0; i < ledger_.size(); ++i) {
                if (ledger_[i])
                    ckpt.done.push_back({i, *ledger_[i]});
            }
        }
        span.arg("tasks", ckpt.done.size());
        s = saveCheckpoint(result_.spec.checkpoint_path, ckpt);
    } catch (const std::exception& e) {
        // Out of memory, say: on the writer thread an escaping
        // exception would end the process, so it fails the write.
        s = Status::internalError(std::string("checkpoint: ") + e.what());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++(s.ok() ? checkpoint_flushes_ : checkpoint_failures_);
    return s;
}

void
CampaignCore::writeCheckpoints()
{
    const double interval_s =
        std::max(0.0, result_.spec.checkpoint_interval_s);
    // The wait is capped: an interval is a double, which the clock's
    // integer duration could overflow.
    constexpr double kMaxWaitS = 3600.0;
    Clock::time_point last_write = start_at_;
    bool warned = false;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        writer_wake_.wait(lock, [&] {
            return stop_writer_ || (dirty_ && !interruptRequested());
        });
        if (stop_writer_)
            return;
        const double wait_s =
            interval_s -
            std::chrono::duration<double>(Clock::now() - last_write)
                .count();
        if (wait_s > 0) {
            writer_wake_.wait_for(
                lock,
                std::chrono::duration<double>(std::min(wait_s, kMaxWaitS)),
                [&] { return stop_writer_; });
            continue;
        }
        lock.unlock();
        const Status s = flush();
        // The interval runs from *after* the write, so slow writes
        // can't compress the next one and the cadence stays uniform.
        last_write = Clock::now();
        if (!s.ok() && !warned) {
            // Degrade gracefully: the campaign still runs, it just
            // can't persist progress right now.
            warn(name_ + ": checkpoint write failed (" + s.toString() +
                 "); continuing without");
            warned = true;
        }
        lock.lock();
    }
}

void
CampaignCore::stopWriter()
{
    if (!writer_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_writer_ = true;
    }
    writer_wake_.notify_one();
    writer_.join();
}

CampaignResult
CampaignCore::finish()
{
    CampaignResult& result = result_;
    // Before the clock: a write in flight counts as evaluation.
    stopWriter();
    if (started_) {
        result.seconds = elapsedSeconds();
        result.cpu_seconds = obs::processCpuSeconds() +
                             obs::processChildrenCpuSeconds() -
                             cpu_start_;
        progress_->stop();
    }
    result.interrupted = interruptRequested();

    // Per-scheme timings, plus one synthetic aggregate span per scheme
    // on its own trace track (evaluation interleaves schemes, so
    // per-shard spans alone don't show scheme-level overlap).
    std::uint64_t shards_completed = 0;
    std::uint64_t trials = 0;
    for (std::size_t s = 0; s < plan_.schemes.size(); ++s) {
        const SchemeClock& clock = clocks_[s];
        obs::SchemeTiming timing;
        timing.scheme_id = plan_.ids[s];
        timing.cpu_seconds =
            static_cast<double>(
                clock.busy_us.load(std::memory_order_relaxed)) *
            1e-6;
        timing.shards = clock.shards.load(std::memory_order_relaxed);
        timing.trials = clock.trials.load(std::memory_order_relaxed);
        shards_completed += timing.shards;
        trials += timing.trials;
        const std::uint64_t first =
            clock.first_us.load(std::memory_order_relaxed);
        const std::uint64_t last =
            clock.last_us.load(std::memory_order_relaxed);
        const bool ran = first != ~std::uint64_t{0} && last > first;
        if (ran)
            timing.wall_seconds =
                static_cast<double>(last - first) * 1e-6;
        result.scheme_timings.push_back(timing);
        if (ran && obs::traceEnabled()) {
            const int tid = 1000 + static_cast<int>(s);
            obs::setTrackName(tid, "scheme " + plan_.ids[s]);
            obs::emitSpan(
                plan_.ids[s], "scheme", trace_eval_start_us_ + first,
                last - first,
                "\"shards\":" + std::to_string(timing.shards) +
                    ",\"trials\":" + std::to_string(timing.trials),
                tid);
        }
    }

    if (checkpointing_) {
        if (Status s = flush(); !s.ok()) {
            warn(name_ + ": final checkpoint write failed: " +
                 s.toString());
        } else if (result.interrupted) {
            inform(name_ + ": interrupted; " +
                   std::to_string(result.resumed_shards +
                                  shards_completed) +
                   " of " + std::to_string(plan_.tasks.size()) +
                   " shard tasks checkpointed to " +
                   result_.spec.checkpoint_path);
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);

    // Drop failed schemes from the cells and record them — a partial
    // scheme row would read as a measured (wrong) rate.
    std::set<std::string> failed;
    for (const auto& [cell, message] : cell_errors_) {
        const CampaignCell& c = result.cells[cell];
        if (failed.insert(c.scheme_id).second) {
            warn(name_ + ": dropping scheme " + c.scheme_id + ": " +
                 message);
            result.errors.push_back(
                {c.scheme_id, "unavailable: pattern " +
                                  patternInfo(c.pattern).label + ": " +
                                  message});
        }
    }
    std::erase_if(result.cells, [&](const CampaignCell& c) {
        return failed.count(c.scheme_id) != 0;
    });

    // Each counter comes from the one place its fact is counted.
    result.metrics.counters = {
        {name_ + ".shards_completed", shards_completed},
        {name_ + ".trials", trials},
        {name_ + ".checkpoint_flushes", checkpoint_flushes_},
        {name_ + ".checkpoint_failures", checkpoint_failures_},
        {name_ + ".schemes_dropped", failed.size()},
        {kShardRetriesCounter, shard_retries_},
    };
    return std::move(result);
}

} // namespace gpuecc::sim
