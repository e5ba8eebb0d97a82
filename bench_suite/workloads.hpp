/**
 * @file
 * The campaign benchmark's workloads and correctness checks.
 *
 * Four fixed campaigns, each built from the seed alone, stress
 * different layers of the engine (see README.md for why each exists).
 * Every campaign a run executes is checked: exhaustive cells against
 * exact counts frozen in reference.json, sampled cells against
 * reference rates drawn from an independent seed, and every rep
 * against the run's first campaign, which must tally identically.
 */

#ifndef GPUECC_BENCH_SUITE_WORKLOADS_HPP
#define GPUECC_BENCH_SUITE_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "sim/campaign.hpp"

namespace gpuecc::bench {

/** One named campaign the benchmark runs. */
struct Workload
{
    std::string name;
    sim::CampaignSpec spec;
    /**
     * Checkpoint every fleet unit into a fresh directory per rep (the
     * fleet-ckpt workload); the runner needs a path per campaign.
     */
    bool checkpoint = false;
};

/**
 * Build a workload's campaign from the seed. `scale` > 1 shrinks it
 * for smoke runs: sample budgets are divided by it, and the exhaustive
 * workload drops its 3 Bits column (99% of its trials).
 */
Result<Workload> makeWorkload(const std::string& name, std::uint64_t seed,
                              std::uint64_t scale);

/** Frozen outcome counts keyed by (scheme id, pattern label). */
using CellCounts =
    std::map<std::pair<std::string, std::string>, OutcomeCounts>;

/** The frozen data in reference.json. */
struct Reference
{
    /** Exact counts of every (paper scheme, enumerable pattern). */
    CellCounts exhaustive;
    /** Counts from an independent seed for the sampled patterns. */
    CellCounts sampled;
};

Result<Reference> loadReference(const std::string& path);

/** Whether two tallies are identical, exactness included. */
bool sameCounts(const OutcomeCounts& a, const OutcomeCounts& b);

/** One campaign call: what it produced and its wall time. */
struct CampaignRun
{
    sim::CampaignResult result;
    /** Wall seconds of the whole CampaignRunner::tryRun call. */
    double wall_s = 0.0;
    /** Path of the final checkpoint (checkpointing workloads only). */
    std::string checkpoint_path;

    /** Time outside the evaluation phase: set-up, forks, final flush. */
    double setupSeconds() const { return wall_s - result.seconds; }
};

/**
 * Run one campaign of the workload. A checkpointing workload writes
 * into `dir`, which is emptied first; the caller removes it.
 */
Result<CampaignRun> runCampaign(const Workload& workload,
                                const std::string& dir);

/** Correctness and operation counts over every campaign of one run. */
struct RunLedger
{
    std::vector<std::string> failures;
    /** Shard tasks the campaigns planned. */
    std::uint64_t attempted = 0;
    /** Operations retried or lost (failedOperations). */
    std::uint64_t failed = 0;

    /**
     * Check one campaign against the reference and, when `first` is
     * given, against the run's first campaign, which it must equal.
     */
    void record(const Workload& workload, const Reference& reference,
                const sim::CampaignResult& result,
                const sim::CampaignResult* first);

    void fail(const std::string& what) { failures.push_back(what); }
};

/**
 * The run's untimed first campaign, recorded into the ledger: the
 * workload run in-process on a 2-thread pool, which for the fleet
 * workload is its verification run. Every later campaign of the run
 * must tally identically to it. A failure is recorded too.
 */
Result<CampaignRun> runFirstCampaign(const Workload& workload,
                                     const Reference& reference,
                                     RunLedger& ledger);

} // namespace gpuecc::bench

#endif // GPUECC_BENCH_SUITE_WORKLOADS_HPP
