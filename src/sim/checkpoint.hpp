/**
 * @file
 * Atomic campaign checkpoints: crash-tolerant progress persistence.
 *
 * A campaign's work plan is a fixed, deterministic list of shard
 * tasks, and every task's tallies depend only on (spec, task index) —
 * so persisting the set of completed tasks with their tallies is
 * enough to resume an interrupted run with bit-identical final
 * counts. The checkpoint is a JSON sidecar written atomically
 * (write-to-temp + rename) so a crash mid-write can never corrupt a
 * previously valid file; a fingerprint of everything the plan depends
 * on (schemes, patterns, samples, seed, chunk, codec backend, task
 * count) guards against resuming into a different campaign.
 */

#ifndef GPUECC_SIM_CHECKPOINT_HPP
#define GPUECC_SIM_CHECKPOINT_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "faultsim/evaluator.hpp"
#include "faultsim/patterns.hpp"

namespace gpuecc::sim {

class JsonWriter;
class JsonValue;

/** One completed shard task: its plan index and merged tallies. */
struct CheckpointEntry
{
    std::uint64_t task = 0;
    OutcomeCounts counts;
};

/** Everything a resume needs: plan identity + completed tasks. */
struct CampaignCheckpoint
{
    std::string fingerprint;
    std::vector<CheckpointEntry> done;
    /**
     * Provenance key/value pairs (threads, codec backend, build,
     * chaos config) written as a "manifest" object — informational
     * only: resume ignores it for validation (the fingerprint is the
     * authority), and checkpoints without one load fine.
     */
    std::vector<std::pair<std::string, std::string>> manifest;
};

/**
 * Identity of a campaign plan, as a readable string. Two campaigns
 * with equal fingerprints have identical task lists and identical
 * per-task tallies; anything that changes the plan or the draws
 * (schemes, patterns, samples, seed, chunk, codec backend, and the
 * build's kSamplerVersion) changes the fingerprint. The thread count
 * itself is deliberately absent —
 * tallies are thread-invariant, so a campaign may resume on
 * different cores as long as the *effective* chunk (which the runner
 * passes here, and which a small sample budget can tie to the worker
 * count via effectiveShardChunk) comes out the same; when it
 * doesn't, the task indexing differs and the mismatch is surfaced as
 * a fingerprint error instead of a silent mis-restore.
 */
std::string campaignFingerprint(
    const std::vector<std::string>& scheme_ids,
    const std::vector<ErrorPattern>& patterns, std::uint64_t samples,
    std::uint64_t seed, std::uint64_t chunk,
    const std::string& codec_backend, std::uint64_t task_count);

/**
 * Serialize a checkpoint as the next JSON value of @p w (the
 * complete document saveCheckpoint persists). Exposed because the
 * fleet protocol reuses the checkpoint document as its work-unit
 * result wire format — one serialization, one validator, whether
 * the tallies travel through a file or a pipe.
 */
void writeCheckpointJson(JsonWriter& w,
                         const CampaignCheckpoint& checkpoint);

/**
 * Parse and structurally validate a checkpoint document (the read
 * side of writeCheckpointJson); @p label names the source in error
 * messages (a path, or "worker 3 result"). Same validation as
 * loadCheckpoint: version, counter widths, per-entry consistency,
 * duplicate task indices.
 */
Result<CampaignCheckpoint>
checkpointFromJson(const JsonValue& root, const std::string& label);

/**
 * Write a checkpoint atomically AND durably: serialize to
 * `path`.tmp, fsync the temp file, rename over `path`, then fsync
 * the containing directory — without the directory sync a crash
 * right after the rename could still lose the new name from the
 * directory itself. On any failure (including an injected chaos
 * fault) the previous checkpoint at `path` is left untouched.
 */
Status saveCheckpoint(const std::string& path,
                      const CampaignCheckpoint& checkpoint);

/**
 * Load and structurally validate a checkpoint: notFound when the
 * file doesn't exist, dataLoss when it doesn't parse, has the wrong
 * version, holds counters that overflow 64 bits or don't sum
 * (trials == dce + due + sdc), or repeats a task index. Plan-level
 * validation (index range, per-task trial widths) happens in the
 * runner, which knows the task list.
 */
Result<CampaignCheckpoint> loadCheckpoint(const std::string& path);

} // namespace gpuecc::sim

#endif // GPUECC_SIM_CHECKPOINT_HPP
