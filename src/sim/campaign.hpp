/**
 * @file
 * Parallel deterministic fault-injection campaign engine.
 *
 * A campaign evaluates a set of ECC organizations against a set of
 * Table 1 error patterns at a given sample budget. The runner shards
 * every (scheme, pattern) cell with the faultsim shard kernel, runs
 * the shards on a work-stealing thread pool, and merges the tallies
 * in plan order — so the per-cell counts are bit-identical for any
 * thread count (one split RNG stream per shard), while the wall-clock
 * scales with cores. This is the engine all evaluation benches and
 * examples share instead of hand-rolled scheme × pattern loops.
 *
 * The runner is crash-tolerant: with a checkpoint path set it
 * persists completed shard tallies atomically (sim/checkpoint.hpp),
 * stops cleanly on SIGINT/SIGTERM after flushing a final checkpoint,
 * resumes bit-identically from a prior checkpoint, retries a failing
 * shard task once, and skips (rather than dies on) schemes that fail
 * to construct or to evaluate — recording every degradation in the
 * result. The failure paths are exercised by the chaos harness
 * (sim/chaos.hpp).
 */

#ifndef GPUECC_SIM_CAMPAIGN_HPP
#define GPUECC_SIM_CAMPAIGN_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "faultsim/evaluator.hpp"
#include "faultsim/patterns.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"

namespace gpuecc::sim {

/** What to run: schemes × patterns × samples, under one seed. */
struct CampaignSpec
{
    /** Registry ids of the organizations under test. */
    std::vector<std::string> scheme_ids;
    /** Patterns to evaluate; empty means all seven Table 1 rows. */
    std::vector<ErrorPattern> patterns;
    /** Monte Carlo samples for non-enumerable patterns. */
    std::uint64_t samples = 200000;
    /** Campaign seed; results are deterministic per seed. */
    std::uint64_t seed = 0x5EED;
    /** Worker threads; 0 selects one per hardware thread. */
    int threads = 1;
    /**
     * Samples per shard of a sampled pattern. The runner may shrink
     * this (block-aligned) so every worker gets at least one shard —
     * see effectiveShardChunk; tallies are chunk-invariant either
     * way, so reports are unaffected.
     */
    std::uint64_t chunk = 1 << 16;
    /**
     * Pin worker i to hardware thread i (mod core count). A placement
     * hint only: tallies and CSV reports are byte-identical with and
     * without it, and it degrades to a recorded no-op on platforms
     * without affinity support.
     */
    bool affinity = false;

    /**
     * Fleet mode: number of local worker *processes* to fork and
     * dispatch work units to over pipes (src/fleet, driven by the
     * fleet service in src/net). 0 (the default) runs the campaign
     * in-process on the thread pool, unless fleet_listen is set.
     * Tallies and the CSV report are bit-identical either way — fleet
     * mode only changes who evaluates each shard, never what is
     * drawn. Requires a platform with fork/pipe; elsewhere tryRun
     * reports unavailable.
     */
    int fleet_workers = 0;
    /**
     * Shard tasks per fleet work unit — the dispatch granularity.
     * Larger units amortize round-trips; smaller units balance
     * better and lose less to a killed worker (a lost worker's
     * in-flight unit is re-queued whole).
     */
    std::uint64_t fleet_unit_shards = 4;

    /**
     * A "host:port" address to also serve the campaign on to remote
     * worker agents (tools/fleet_agent); empty (the default) serves
     * local workers only. Port 0 binds an ephemeral port (tests read
     * it back). Agents and the fleet_workers local workers share the
     * work through one liaison loop; with 0 local workers the agents
     * carry the campaign alone.
     */
    std::string fleet_listen;
    /**
     * Shared secret for the agent handshake. Both sides prove
     * possession with an HMAC over a per-connection server nonce
     * before any plan data moves; the secret itself never travels.
     * Required (non-empty) in service mode.
     */
    std::string fleet_secret;
    /**
     * Seconds a dispatched unit may stay in flight before its host is
     * declared hung — the host is retired (killed, for a local
     * worker) and the unit requeued. 0 (the default) disables the
     * deadline: a unit's evaluation time is spec-dependent and the
     * caller knows the scale. Applies to local workers and agents
     * alike.
     */
    double fleet_worker_timeout_s = 0.0;
    /**
     * Seconds of wire silence (no result, no heartbeat) before the
     * fleet declares a host dead and requeues its in-flight unit.
     * Local workers beat at a quarter of this interval; agents at
     * their own configured interval.
     */
    double fleet_heartbeat_timeout_s = 10.0;
    /**
     * Seconds with no live host (local worker or agent) before a
     * fleet_listen campaign stops waiting for agents to (re)connect
     * and finishes the remaining units in-process. Without a listen
     * address no host can arrive, so the last lost worker hands over
     * at once.
     */
    double fleet_grace_s = 30.0;
    /**
     * Dispatch attempts per unit before it is declared poison and
     * retired (its cell fails, the fleet survives). Minimum 1.
     */
    int fleet_max_unit_attempts = 3;

    /**
     * Live observability endpoint ("HOST:PORT"; empty disables).
     * Fleet campaigns serve read-only Prometheus text at /metrics and
     * campaign status JSON at /status on this address, safe to curl
     * mid-campaign without perturbing determinism.
     */
    std::string obs_listen;
    /**
     * Append-only NDJSON event journal path; empty disables. Every
     * fleet lifecycle event (connect, dispatch, result, requeue,
     * poison, fallback, drain, ...) is written through with the
     * checkpoint's fsync discipline for post-mortem replay via
     * tools/fleet_journal.
     */
    std::string journal_path;

    /**
     * Checkpoint sidecar path; empty disables checkpointing. When
     * set, completed shard tallies are flushed atomically to this
     * file on an interval and on SIGINT/SIGTERM, and the final
     * (complete) state is written on success.
     */
    std::string checkpoint_path;
    /**
     * Resume from checkpoint_path: completed shard tasks recorded
     * there are restored instead of re-evaluated, and the final
     * tallies are bit-identical to an uninterrupted run. A missing
     * checkpoint file starts fresh; a checkpoint from a different
     * campaign (fingerprint mismatch) is an error.
     */
    bool resume = false;
    /**
     * Minimum seconds between periodic checkpoint writes (<= 0: write
     * continuously). Each write covers every task completed since the
     * previous one.
     */
    double checkpoint_interval_s = 30.0;

    /**
     * Live progress line on stderr. Off by default so library users
     * and tests stay silent; the campaign CLI maps --progress/--quiet
     * onto this (auto-enabling on a TTY). Progress reporting reads
     * atomic completion counters only — it never perturbs tallies.
     */
    obs::ProgressMode progress = obs::ProgressMode::off;

    /** The patterns to run (resolving the empty-means-all default). */
    std::vector<ErrorPattern> resolvedPatterns() const;
};

/** One non-fatal failure the campaign degraded around. */
struct CampaignError
{
    /** Scheme the failure belongs to (empty for campaign-level). */
    std::string scheme_id;
    /** Structured description, e.g. "not_found: unknown ECC ...". */
    std::string message;
};

/** Merged tallies of one (scheme, pattern) cell. */
struct CampaignCell
{
    std::string scheme_id;
    ErrorPattern pattern;
    OutcomeCounts counts;
};

/** Everything a campaign produced, plus run statistics. */
struct CampaignResult
{
    /** The spec as run (threads resolved to a concrete count). */
    CampaignSpec spec;
    /** Codec backend the run decoded with ("compiled"/"reference"). */
    std::string codec_backend;
    /** Scheme-major, pattern-minor, in spec order. */
    std::vector<CampaignCell> cells;
    /** Wall-clock of the sharded evaluation phase. */
    double seconds = 0.0;
    /** Process CPU seconds consumed by the evaluation phase. */
    double cpu_seconds = 0.0;
    /** Thread-pool utilization over the evaluation phase. */
    obs::PoolTelemetry pool;
    /** Per-scheme time/volume breakdown, in evaluated-spec order. */
    std::vector<obs::SchemeTiming> scheme_timings;
    /** Fleet execution telemetry (workers == 0 for in-process). */
    obs::FleetTelemetry fleet;
    /** Deltas of the campaign.* metrics recorded by this run. */
    obs::MetricsSnapshot metrics;
    /** Number of shards the plan contained. */
    std::uint64_t shards = 0;
    /** Shard tasks restored from a checkpoint instead of evaluated. */
    std::uint64_t resumed_shards = 0;
    /**
     * True when SIGINT/SIGTERM (or a chaos kill-point) stopped the
     * run early; the cells then hold partial tallies and a final
     * checkpoint has been flushed for --resume.
     */
    bool interrupted = false;
    /**
     * Schemes the campaign skipped (failed lookup or persistent
     * shard failure) — graceful degradation, recorded per scheme.
     */
    std::vector<CampaignError> errors;

    /** Total injected trials across all cells. */
    std::uint64_t totalTrials() const;

    /** Whether the result holds cells for this scheme. */
    bool hasScheme(const std::string& scheme_id) const;

    /** Injection throughput (trials per wall-clock second). */
    double trialsPerSecond() const;

    /** Tallies of one cell; fatal if the campaign didn't run it. */
    const OutcomeCounts& counts(const std::string& scheme_id,
                                ErrorPattern pattern) const;

    /**
     * Per-pattern map for one scheme, in the shape weightedOutcome
     * consumes.
     */
    std::map<ErrorPattern, OutcomeCounts>
    perPattern(const std::string& scheme_id) const;
};

/** Executes campaigns; owns nothing between runs. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignSpec spec);

    /** Run the campaign; safe to call repeatedly (same result). */
    CampaignResult run() const;

    /**
     * Run the campaign, reporting unrecoverable setup problems (no
     * usable scheme, a corrupt or mismatched resume checkpoint) as a
     * structured error instead of exiting. Recoverable failures —
     * one bad scheme among several, a failing checkpoint write, an
     * interrupt — degrade gracefully inside the result (errors /
     * interrupted fields). run() is this plus fatal() on error.
     */
    Result<CampaignResult> tryRun() const;

  private:
    CampaignSpec spec_;
};

} // namespace gpuecc::sim

#endif // GPUECC_SIM_CAMPAIGN_HPP
