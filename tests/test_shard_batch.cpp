/**
 * @file
 * Differential tests for the batched shard kernel.
 *
 * evaluateShard (per-sample scalar dispatch) is the oracle;
 * evaluateShardBatched, for one scheme or for every scheme sharing a
 * shard's masks, must produce bit-identical tallies for every
 * scheme in the registry, every pattern class, every block-aligned
 * chunk size, every thread count, and both codec backends — the
 * equivalence the execution-core refactor's determinism guarantee
 * rests on. Also covers the effectiveShardChunk planning helper and
 * the cache-line alignment of the arena types.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/codec_mode.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ecc/registry.hpp"
#include "faultsim/shard.hpp"
#include "sim/campaign.hpp"

namespace gpuecc {
namespace {

constexpr std::uint64_t kSeed = 0xB47C4ED;

bool
sameCounts(const OutcomeCounts& a, const OutcomeCounts& b)
{
    return a.trials == b.trials && a.dce == b.dce && a.due == b.due &&
           a.sdc == b.sdc && a.exhaustive == b.exhaustive;
}

/** Merged tallies of one (scheme, pattern) run through a kernel. */
OutcomeCounts
runShards(const EntryScheme& scheme, const GoldenEntry& golden,
          ErrorPattern pattern, std::uint64_t samples,
          std::uint64_t chunk, bool batched)
{
    OutcomeCounts total;
    ShardBatchArena arena;
    for (const Shard& shard : planShards(pattern, samples, chunk)) {
        total.merge(batched
                        ? evaluateShardBatched(scheme, golden, kSeed,
                                               shard, arena)
                        : evaluateShard(scheme, golden, kSeed, shard));
    }
    return total;
}

TEST(ShardBatch, MatchesScalarForEverySchemeAndPattern)
{
    // Every registry scheme, every Table 1 pattern, three kernels: the
    // scalar oracle, the one-scheme batch kernel, and the shared batch
    // kernel decoding each shard for every scheme in one call. Sampled
    // budget is kept modest (the enumerable patterns dominate the
    // runtime anyway); equality must be exact, not statistical.
    const std::uint64_t samples = 4096;
    std::vector<std::shared_ptr<EntryScheme>> schemes;
    std::vector<GoldenEntry> goldens;
    for (const std::string& id : schemeIds()) {
        schemes.push_back(makeScheme(id));
        goldens.push_back(makeGolden(*schemes.back(), kSeed));
    }
    std::vector<SchemeTally> tallies;
    for (std::size_t s = 0; s < schemes.size(); ++s)
        tallies.push_back({schemes[s].get(), {}});

    ShardBatchArena arena;
    for (ErrorPattern p : allErrorPatterns()) {
        const std::vector<Shard> plan =
            planShards(p, samples, kShardSamples);
        for (CodecBackend backend :
             {CodecBackend::compiled, CodecBackend::reference}) {
            setCodecBackend(backend);
            const bool reference = backend == CodecBackend::reference;
            // The reference backend's matrix decode is ~4x slower:
            // there each pattern runs its first and last shard (the
            // largest and the smallest).
            std::vector<Shard> shards = plan;
            if (reference && shards.size() > 2)
                shards = {shards.front(), shards.back()};

            std::vector<OutcomeCounts> shared(schemes.size());
            for (const Shard& shard : shards) {
                evaluateShardBatched(tallies, kSeed, shard, arena);
                for (std::size_t s = 0; s < schemes.size(); ++s)
                    shared[s].merge(tallies[s].counts);
            }
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                OutcomeCounts scalar;
                OutcomeCounts batched;
                for (const Shard& shard : shards) {
                    batched.merge(evaluateShardBatched(
                        *schemes[s], goldens[s], kSeed, shard, arena));
                    if (!reference)
                        scalar.merge(evaluateShard(
                            *schemes[s], goldens[s], kSeed, shard));
                }
                const std::string where =
                    "scheme=" + schemeIds()[s] + " pattern=" +
                    patternInfo(p).label +
                    (reference ? " backend=reference" : "");
                if (!reference) {
                    EXPECT_TRUE(sameCounts(scalar, batched)) << where;
                }
                EXPECT_TRUE(sameCounts(batched, shared[s])) << where;
            }
        }
        setCodecBackend(CodecBackend::compiled);
    }
}

TEST(ShardBatch, InvariantToChunkSize)
{
    // Draws are keyed per stream block, so any block-aligned chunk
    // must merge to the same tallies — including chunks that are not
    // multiples of the batch size and a chunk that leaves a partial
    // final block (samples not a block multiple).
    const std::uint64_t samples = 10000;
    // One binary scheme and both RS organizations: the kernel stages
    // 256-entry batches, so the non-multiple chunks also exercise
    // partial batches.
    for (const char* id : {"duet", "i-ssc", "ssc-dsd+"}) {
        const auto scheme = makeScheme(id);
        const GoldenEntry golden = makeGolden(*scheme, kSeed);
        for (ErrorPattern p :
             {ErrorPattern::oneBeat, ErrorPattern::wholeEntry}) {
            const OutcomeCounts oracle = runShards(
                *scheme, golden, p, samples, kShardSamples, false);
            for (std::uint64_t chunk : {1024ull, 3000ull, 4096ull,
                                        65536ull}) {
                const OutcomeCounts batched =
                    runShards(*scheme, golden, p, samples, chunk, true);
                EXPECT_TRUE(sameCounts(oracle, batched))
                    << "scheme=" << id
                    << " pattern=" << patternInfo(p).label
                    << " chunk=" << chunk;
            }
        }
    }
}

TEST(ShardBatch, MatchesScalarUnderBothBackends)
{
    const std::uint64_t samples = 4096;
    // The compiled binary codec plus every RS organization: the
    // error-domain kernel against the golden-entry oracle, under
    // either codec backend.
    for (const char* id :
         {"trio", "i-ssc", "i-ssc-csc", "ssc-dsd+", "dsc", "ssc-tsd"}) {
        const auto scheme = makeScheme(id);
        const GoldenEntry golden = makeGolden(*scheme, kSeed);
        for (CodecBackend backend :
             {CodecBackend::compiled, CodecBackend::reference}) {
            setCodecBackend(backend);
            for (ErrorPattern p :
                 {ErrorPattern::oneBit, ErrorPattern::wholeEntry}) {
                const OutcomeCounts scalar = runShards(
                    *scheme, golden, p, samples, kShardSamples, false);
                const OutcomeCounts batched = runShards(
                    *scheme, golden, p, samples, kShardSamples, true);
                EXPECT_TRUE(sameCounts(scalar, batched))
                    << "scheme=" << id << " backend="
                    << (backend == CodecBackend::compiled ? "compiled"
                                                          : "reference")
                    << " pattern=" << patternInfo(p).label;
            }
        }
        setCodecBackend(CodecBackend::compiled);
    }
}

TEST(ShardBatch, DecodeBatchMatchesElementwiseDecode)
{
    // The batch decode entry point itself, on a mixed batch: clean
    // entries, correctable single bits, and multi-bit patterns that
    // exercise the DUE and CSC paths.
    for (const std::string& id : schemeIds()) {
        const auto scheme = makeScheme(id);
        const GoldenEntry golden = makeGolden(*scheme, kSeed);
        Rng rng(kSeed);
        std::vector<Bits288> received;
        for (int i = 0; i < 300; ++i) {
            Bits288 entry = golden.entry;
            const int flips = static_cast<int>(rng.nextBounded(4));
            for (int f = 0; f < flips; ++f)
                entry.flip(static_cast<int>(rng.nextBounded(288)));
            received.push_back(entry);
        }
        std::vector<EntryDecode> batch(received.size());
        scheme->decodeBatch(received.data(), batch.data(),
                            received.size());
        for (std::size_t i = 0; i < received.size(); ++i) {
            const EntryDecode one = scheme->decode(received[i]);
            EXPECT_EQ(static_cast<int>(batch[i].status),
                      static_cast<int>(one.status))
                << "scheme=" << id << " entry=" << i;
            if (one.status != EntryDecode::Status::due) {
                EXPECT_EQ(batch[i].data, one.data)
                    << "scheme=" << id << " entry=" << i;
            }
        }
    }
}

TEST(ShardBatch, EvaluatorThreadCountInvariance)
{
    // The full engine path (Evaluator -> batched kernel -> per-worker
    // arenas -> merge) at several thread counts, including
    // oversubscription beyond the host's core count.
    for (const char* id : {"duet", "ssc-dsd+", "i-ssc"}) {
        const auto rs_scheme = makeScheme(id);
        Evaluator rs_one(*rs_scheme, kSeed, 1);
        const OutcomeCounts rs_oracle =
            rs_one.evaluate(ErrorPattern::wholeEntry, 20000);
        for (int threads : {2, 3, 8}) {
            Evaluator many(*rs_scheme, kSeed, threads);
            const OutcomeCounts counts =
                many.evaluate(ErrorPattern::wholeEntry, 20000);
            EXPECT_TRUE(sameCounts(rs_oracle, counts))
                << "scheme=" << id << " threads=" << threads;
        }
    }
    const auto scheme = makeScheme("duet");
    Evaluator one(*scheme, kSeed, 1);
    // Enumerable pattern: the exhaustive flag must survive the
    // per-worker accumulator merge even when a worker stays idle.
    const OutcomeCounts exhaustive_one =
        one.evaluate(ErrorPattern::oneBit, 0);
    Evaluator wide(*scheme, kSeed, 16);
    const OutcomeCounts exhaustive_many =
        wide.evaluate(ErrorPattern::oneBit, 0);
    EXPECT_TRUE(exhaustive_one.exhaustive);
    EXPECT_TRUE(sameCounts(exhaustive_one, exhaustive_many));
}

TEST(ShardBatch, EffectiveChunkFeedsEveryWorker)
{
    // samples >= workers * block: at least `workers` shards.
    for (int workers : {1, 2, 4, 7, 16}) {
        const std::vector<std::uint64_t> budgets = {
            static_cast<std::uint64_t>(workers) * kStreamBlockSamples,
            200000, 1 << 20};
        for (std::uint64_t samples : budgets) {
            const std::uint64_t chunk = effectiveShardChunk(
                samples, kShardSamples, workers);
            EXPECT_EQ(chunk % kStreamBlockSamples, 0u)
                << "workers=" << workers << " samples=" << samples;
            const auto shards = planShards(ErrorPattern::wholeEntry,
                                           samples, chunk);
            EXPECT_GE(shards.size(),
                      static_cast<std::size_t>(workers))
                << "workers=" << workers << " samples=" << samples;
        }
    }
    // Below one block per worker there is nothing useful to split;
    // the requested chunk stands.
    EXPECT_EQ(effectiveShardChunk(512, kShardSamples, 4),
              kShardSamples);
    // The clamp never grows the chunk.
    EXPECT_EQ(effectiveShardChunk(1u << 20, 1024, 4), 1024u);
}

TEST(ShardBatch, ArenaTypesAreCacheLineAligned)
{
    static_assert(alignof(CacheAligned<OutcomeCounts>) ==
                      kCacheLineBytes,
                  "per-worker tally slots must be line-aligned");
    static_assert(sizeof(CacheAligned<OutcomeCounts>) %
                          kCacheLineBytes ==
                      0,
                  "per-worker tally slots must pad to whole lines");
    static_assert(alignof(ShardBatchArena) >= kCacheLineBytes,
                  "batch arena must start on a cache line");
    // Runtime check that WorkerArena actually hands out slots on
    // distinct cache lines.
    ThreadPool pool(4);
    WorkerArena<OutcomeCounts> tallies(pool);
    for (int w = 1; w < tallies.size(); ++w) {
        const auto prev = reinterpret_cast<std::uintptr_t>(
            &tallies.at(w - 1));
        const auto cur =
            reinterpret_cast<std::uintptr_t>(&tallies.at(w));
        EXPECT_EQ(prev % kCacheLineBytes, 0u);
        EXPECT_GE(cur - prev, kCacheLineBytes);
    }
}

TEST(ShardBatch, CampaignMatchesLegacyScalarMerge)
{
    // End-to-end: the campaign runner (batched kernel, worker
    // arenas, effective-chunk planning) against a by-hand scalar
    // merge of the same plan.
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "ni-secded"};
    spec.patterns = {ErrorPattern::oneBit, ErrorPattern::wholeEntry};
    spec.samples = 30000;
    spec.seed = kSeed;
    spec.threads = 4;
    const sim::CampaignResult result =
        sim::CampaignRunner(spec).run();
    for (const std::string& id : spec.scheme_ids) {
        const auto scheme = makeScheme(id);
        const GoldenEntry golden = makeGolden(*scheme, kSeed);
        for (ErrorPattern p : spec.patterns) {
            const OutcomeCounts oracle =
                runShards(*scheme, golden, p, spec.samples,
                          spec.chunk, false);
            EXPECT_TRUE(sameCounts(oracle, result.counts(id, p)))
                << "scheme=" << id
                << " pattern=" << patternInfo(p).label;
        }
    }
}

} // namespace
} // namespace gpuecc
