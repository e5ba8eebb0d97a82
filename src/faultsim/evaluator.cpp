#include "faultsim/evaluator.hpp"

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "faultsim/shard.hpp"

namespace gpuecc {

bool
OutcomeCounts::fitsWithoutOverflow(const OutcomeCounts& other) const
{
    return trials <= UINT64_MAX - other.trials &&
           dce <= UINT64_MAX - other.dce &&
           due <= UINT64_MAX - other.due &&
           sdc <= UINT64_MAX - other.sdc;
}

bool
OutcomeCounts::selfConsistent() const
{
    // Checked without intermediate sums so corrupt values near
    // UINT64_MAX cannot wrap their way into looking consistent.
    return dce <= trials && due <= trials - dce &&
           sdc == trials - dce - due;
}

OutcomeCounts&
OutcomeCounts::merge(const OutcomeCounts& other)
{
    require(fitsWithoutOverflow(other),
            "OutcomeCounts::merge: counter overflow");
    // An accumulator that has seen no shard yet adopts the first
    // shard's exactness; afterwards all shards must agree.
    exhaustive = trials == 0 ? other.exhaustive
                             : (exhaustive && other.exhaustive);
    trials += other.trials;
    dce += other.dce;
    due += other.due;
    sdc += other.sdc;
    return *this;
}

Evaluator::Evaluator(const EntryScheme& scheme, std::uint64_t seed,
                     int threads)
    : scheme_(scheme), seed_(seed),
      threads_(ThreadPool::resolveThreadCount(threads))
{
}

OutcomeCounts
Evaluator::evaluate(ErrorPattern pattern, std::uint64_t samples)
{
    auto runShard = [this](const Shard& shard, ShardBatchArena& arena) {
        SchemeTally tally{&scheme_, {}};
        evaluateShardBatched({&tally, 1}, seed_, shard, arena);
        return tally.counts;
    };
    const std::vector<Shard> shards = planShards(
        pattern, samples,
        effectiveShardChunk(samples, kShardSamples, threads_));
    if (threads_ == 1) {
        // Inline: one arena, one accumulator, batched kernel.
        ShardBatchArena arena;
        OutcomeCounts total;
        for (const Shard& shard : shards)
            total.merge(runShard(shard, arena));
        return total;
    }
    // Parallel: per-worker cache-line-aligned arenas and tallies,
    // merged once after the pool drains (order-free by construction).
    struct WorkerState
    {
        ShardBatchArena arena;
        OutcomeCounts counts;
    };
    ThreadPool pool(threads_);
    WorkerArena<WorkerState> states(pool);
    pool.parallelFor(shards.size(), [&](std::uint64_t i) {
        WorkerState& ws = states.local();
        ws.counts.merge(runShard(shards[i], ws.arena));
    });
    OutcomeCounts total;
    for (int w = 0; w < states.size(); ++w) {
        // A worker that never ran a shard holds an empty (and thus
        // non-exhaustive) accumulator; merging it would clear the
        // exhaustive flag of enumerable patterns.
        if (states.at(w).counts.trials > 0)
            total.merge(states.at(w).counts);
    }
    return total;
}

std::map<ErrorPattern, OutcomeCounts>
Evaluator::evaluateAll(std::uint64_t samples)
{
    std::map<ErrorPattern, OutcomeCounts> out;
    for (ErrorPattern p : allErrorPatterns())
        out[p] = evaluate(p, samples);
    return out;
}

} // namespace gpuecc
