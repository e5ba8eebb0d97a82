/**
 * @file
 * The campaign mechanics every execution path shares.
 *
 * Three drivers run campaigns: the in-process runner (a thread pool),
 * the fleet dispatcher (work units to forked worker processes)
 * and the fleet worker (one unit at a time). They differ only in who
 * evaluates a shard task; everything else lives here, once:
 *
 *  - CampaignPlan: the scheme-major task plan and its fingerprint,
 *    the one validator for a task's tallies (checkpoint resume and
 *    fleet results), and evaluateGroup — per-task chaos hook, one
 *    shared-mask evaluation of a shard group, retry a failed task
 *    once on its own, otherwise report the failure so the caller
 *    fails that task's cell.
 *  - CampaignCore: the result under construction, per-cell failure
 *    bookkeeping, per-scheme clocks (which the progress line reads),
 *    the checkpoint ledger (restore, a group-commit writer thread,
 *    final flush, warn-once) and the finalize step (per-scheme
 *    timings and synthetic trace spans, dropping failed schemes, the
 *    run's counters). The runner and the dispatcher own one each; the
 *    worker needs only the plan.
 */

#ifndef GPUECC_SIM_CAMPAIGN_CORE_HPP
#define GPUECC_SIM_CAMPAIGN_CORE_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "faultsim/shard.hpp"
#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"

namespace gpuecc::sim {

/** Whole microseconds from @p origin to @p at. */
inline std::uint64_t
microsBetween(std::chrono::steady_clock::time_point origin,
              std::chrono::steady_clock::time_point at)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(at - origin)
            .count());
}

/**
 * The counter shard-task retries are reported under, by every driver
 * and by each forked worker for its own units.
 */
inline constexpr char kShardRetriesCounter[] = "campaign.shard_retries";

/** One plan entry: a shard of one (scheme, pattern) cell. */
struct PlanTask
{
    std::size_t cell;
    Shard shard;
};

/**
 * The deterministic task plan: every shard of every cell, scheme-major
 * and pattern-minor, sharing one pattern plan (and thus the same RNG
 * streams and masks) across schemes so scheme columns stay paired.
 * Task j of every scheme covers the same shard: together they form
 * shard group j, whose masks need drawing only once.
 */
struct CampaignPlan
{
    /** Resolved scheme ids, in spec order. */
    std::vector<std::string> ids;
    std::vector<std::shared_ptr<EntryScheme>> schemes;
    std::vector<ErrorPattern> patterns;
    std::uint64_t samples = 0;
    std::uint64_t seed = 0;
    /** The effective (block-aligned) chunk the shards were cut with. */
    std::uint64_t chunk = 0;
    std::vector<PlanTask> tasks;

    /**
     * Resolve @p scheme_ids and shard every cell with @p chunk. A
     * scheme that fails to resolve is skipped, warned about and
     * recorded in @p skipped; notFound when none resolves.
     */
    static Result<CampaignPlan>
    build(const std::vector<std::string>& scheme_ids,
          const std::vector<ErrorPattern>& patterns,
          std::uint64_t samples, std::uint64_t seed, std::uint64_t chunk,
          std::vector<CampaignError>& skipped);

    /**
     * campaignFingerprint of this plan under the active codec —
     * computed per call: only fleet and checkpointing runs need it.
     */
    std::string fingerprint() const;

    /** Index of the scheme a task belongs to. */
    std::size_t schemeOf(std::uint64_t task) const
    {
        return tasks[task].cell / patterns.size();
    }

    /**
     * The one tally validator: @p task must be in the plan, and
     * @p counts must be possible tallies of it — exhaustive exactly
     * when its pattern is enumerable, and a sampled shard's trial
     * count equal to its sample span. dataLoss otherwise.
     */
    Status checkTally(std::uint64_t task,
                      const OutcomeCounts& counts) const;

    /**
     * Shard groups in the plan, i.e. tasks per scheme: task
     * s * groupCount() + j is scheme s's member of group j.
     */
    std::uint64_t groupCount() const
    {
        return tasks.size() / schemes.size();
    }

    /**
     * Evaluate @p group, tasks of one shard group, drawing each mask
     * once for all of them: every task runs its chaos hook, then the
     * tasks whose hook passed share one kernel call. A task whose
     * hook threw, or every task of a kernel call that threw, is
     * retried once on its own (added to @p retries, the caller's
     * campaign.shard_retries count, and warned about). A second
     * failure comes back as that task's error; the caller fails its
     * cell, never the campaign. Element k of the result belongs to
     * group[k].
     */
    std::vector<Result<OutcomeCounts>>
    evaluateGroup(std::span<const std::uint64_t> group,
                  ShardBatchArena& arena, std::uint64_t& retries) const;

    /** evaluateGroup of the one task @p task. */
    Result<OutcomeCounts> evaluateTask(std::uint64_t task,
                                       ShardBatchArena& arena,
                                       std::uint64_t& retries) const;
};

/**
 * One campaign in flight. Construction and restore run on one thread
 * before any evaluation; complete/fail/skip/cellFailed are safe from
 * any thread during evaluation; finish runs once at the end.
 */
class CampaignCore
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * Which driver runs the campaign. It names the log lines and the
     * metric family ("campaign.*" in-process, "fleet.*" for the fleet
     * dispatcher) and shapes the checkpoint manifest.
     */
    enum class Driver
    {
        inProcess,
        fleet,
    };

    /**
     * Plan @p spec (skipping broken schemes into result().errors)
     * with the chunk sized for @p width evaluation slots, and open
     * the checkpoint ledger. @p threads is the thread count the
     * result reports. Errors are unrecoverable setup problems (no
     * usable scheme).
     */
    static Result<std::unique_ptr<CampaignCore>>
    create(const CampaignSpec& spec, Driver driver, int threads,
           std::uint64_t width);

    ~CampaignCore();
    CampaignCore(const CampaignCore&) = delete;
    CampaignCore& operator=(const CampaignCore&) = delete;

    const CampaignPlan& plan() const { return plan_; }
    /** The result under construction; drivers merge the cells. */
    CampaignResult& result() { return result_; }

    /**
     * The entries of the resume checkpoint, each validated against
     * the plan — empty unless the spec resumes from an existing file.
     * failedPrecondition when the checkpoint belongs to a different
     * campaign; dataLoss when it doesn't load or an entry doesn't fit.
     */
    Result<std::vector<CheckpointEntry>> loadResume();

    /** Merge one restored entry into its cell and the ledger. */
    void restore(const CheckpointEntry& entry);

    /** Whether a task was restored (it needs no evaluation). */
    bool restored(std::uint64_t task) const
    {
        return restored_[task] != 0;
    }

    /**
     * Start the clocks, the progress reporter and, when checkpointing,
     * the checkpoint writer (both own a thread: call after every
     * fork). Every task not restored counts as pending until
     * completed, failed or skipped.
     */
    void start();

    /** Whether a cell already failed (its tasks should be skipped). */
    bool cellFailed(std::size_t cell) const
    {
        return cell_failed_[cell].load(std::memory_order_relaxed);
    }

    /**
     * Account freshly evaluated @p entries of one cell, evaluated
     * between @p began and @p ended with @p busy_us of compute: its
     * scheme clock (which the progress line and the
     * <driver>.shards_completed and <driver>.trials counters read),
     * the checkpoint ledger and the chaos kill-point. Never touches
     * the disk: a ledger that turns dirty wakes the checkpoint
     * writer. Cell tallies are the driver's to merge.
     */
    void complete(const std::vector<CheckpointEntry>& entries,
                  std::uint64_t busy_us, Clock::time_point began,
                  Clock::time_point ended);

    /**
     * Fail @p cell with @p message (its scheme is dropped at finish)
     * and dispose of @p tasks of its pending tasks unevaluated.
     */
    void fail(std::size_t cell, std::uint64_t tasks,
              const std::string& message);

    /** Dispose of @p tasks pending tasks of @p cell unevaluated. */
    void skip(std::size_t cell, std::uint64_t tasks);

    /** Count @p retries shard-task retries (campaign.shard_retries). */
    void addRetries(std::uint64_t retries);

    /**
     * Progress read from the scheme clocks: the tasks this run
     * evaluates, those settled (planned minus pending), the trials
     * evaluated, and the schemes with nothing pending. Safe from any
     * thread; the progress line samples it.
     */
    obs::ProgressSample progress() const;

    /** Seconds since start() (0 before it). */
    double elapsedSeconds() const;

    /**
     * Join the checkpoint writer, stop the clocks, flush the final
     * checkpoint (complete on success, partial on interrupt), fill
     * the per-scheme timings and their synthetic trace spans, drop
     * failed schemes and render the run's counters:
     * <driver>.{shards_completed, trials, checkpoint_flushes,
     * checkpoint_failures, schemes_dropped} and
     * campaign.shard_retries. Returns the result; call once.
     */
    CampaignResult finish();

  private:
    CampaignCore() = default;

    /** Tasks evaluated by this run (restored ones excluded). */
    std::uint64_t completedTasks() const;
    /**
     * Write the ledger: snapshot it in plan order under mutex_ (which
     * must not be held), then serialize and save it unlocked. Counts
     * the write in checkpoint_flushes_ or checkpoint_failures_.
     */
    Status flush();
    /**
     * The checkpoint writer thread: once the ledger is dirty and the
     * interval has passed since its last write, flush — every shard
     * settled meanwhile rides the same write. Idle after an interrupt.
     */
    void writeCheckpoints();
    /** Stop and join the writer, if running. */
    void stopWriter();

    struct SchemeClock;

    std::string name_; //!< "campaign" or "fleet"
    CampaignPlan plan_;
    /** The result under construction; result_.spec is the spec run. */
    CampaignResult result_;
    std::vector<char> restored_;
    std::unique_ptr<std::atomic<bool>[]> cell_failed_;
    std::unique_ptr<SchemeClock[]> clocks_;
    /** Tasks this run evaluates; fixed by start(). */
    std::uint64_t planned_ = 0;
    /** Samples clocks_, so it is declared (and destroyed) after. */
    std::unique_ptr<obs::ProgressReporter> progress_;
    bool resume_found_ = false;
    bool started_ = false;
    Clock::time_point start_at_;
    double cpu_start_ = 0.0;
    std::uint64_t trace_eval_start_us_ = 0;

    bool checkpointing_ = false;
    std::string fingerprint_; //!< set when checkpointing
    std::vector<std::pair<std::string, std::string>> ckpt_manifest_;

    std::mutex mutex_; //!< everything below, up to writer_
    /**
     * The checkpoint ledger, kept only when checkpointing: per plan
     * task, its tallies once restored or completed.
     */
    std::vector<std::optional<OutcomeCounts>> ledger_;
    /** The ledger holds tasks the file on disk does not. */
    bool dirty_ = false;
    bool stop_writer_ = false;
    std::condition_variable writer_wake_;
    std::uint64_t checkpoint_flushes_ = 0;
    std::uint64_t checkpoint_failures_ = 0;
    std::uint64_t shard_retries_ = 0;
    std::vector<std::pair<std::size_t, std::string>> cell_errors_;

    /**
     * Runs writeCheckpoints when checkpointing. Declared last: it uses
     * every member above.
     */
    std::thread writer_;
};

} // namespace gpuecc::sim

#endif // GPUECC_SIM_CAMPAIGN_CORE_HPP
