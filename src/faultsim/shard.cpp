#include "faultsim/shard.hpp"

#include "common/log.hpp"
#include "common/rng.hpp"

namespace gpuecc {

namespace {

/**
 * Stream id of a sampled stream block: pattern in the high half,
 * block index in the low half. Bit 63 is left clear — other
 * deterministic consumers (the degradation evaluator) tag their
 * streams there so the families never collide under one campaign
 * seed. Keying streams to fixed-size blocks rather than to shards is
 * what makes tallies independent of the shard chunk size.
 */
std::uint64_t
blockStream(ErrorPattern p, std::uint64_t block_index)
{
    require(block_index < kStreamBlocksPerPattern,
            "planShards: block index overflows the stream id space");
    return (static_cast<std::uint64_t>(p) << 32) | block_index;
}

} // namespace

std::vector<Shard>
planShards(ErrorPattern p, std::uint64_t samples, std::uint64_t chunk)
{
    require(chunk > 0, "planShards: chunk must be positive");
    std::vector<Shard> shards;
    if (patternIsEnumerable(p)) {
        const std::uint64_t outer = enumerationOuterSize(p);
        for (std::uint64_t b = 0; b < outer; b += kShardOuterSlots) {
            shards.push_back(
                {p, b, std::min(outer, b + kShardOuterSlots), 0});
        }
        return shards;
    }
    // Round the chunk up to a stream-block multiple so every shard
    // boundary is block-aligned (the last shard may end mid-block).
    chunk = ((chunk + kStreamBlockSamples - 1) / kStreamBlockSamples)
            * kStreamBlockSamples;
    for (std::uint64_t b = 0; b < samples; b += chunk) {
        shards.push_back({p, b, std::min(samples, b + chunk),
                          blockStream(p, b / kStreamBlockSamples)});
    }
    return shards;
}

std::uint64_t
effectiveShardChunk(std::uint64_t samples, std::uint64_t chunk,
                    int workers)
{
    require(chunk > 0, "effectiveShardChunk: chunk must be positive");
    require(workers > 0,
            "effectiveShardChunk: workers must be positive");
    chunk = ((chunk + kStreamBlockSamples - 1) / kStreamBlockSamples)
            * kStreamBlockSamples;
    if (workers <= 1)
        return chunk;
    // Largest block-aligned chunk that still yields >= workers
    // shards; zero means the budget is under one block per worker,
    // where the requested chunk stands (nothing useful to split).
    const std::uint64_t per_worker_blocks =
        samples /
        (static_cast<std::uint64_t>(workers) * kStreamBlockSamples);
    if (per_worker_blocks == 0)
        return chunk;
    return std::min(chunk, per_worker_blocks * kStreamBlockSamples);
}

GoldenEntry
makeGolden(const EntryScheme& scheme, std::uint64_t seed)
{
    // Linearity of every considered code makes outcome classification
    // independent of the protected data (verified by property tests),
    // so one random golden entry per scheme suffices.
    Rng rng(seed);
    GoldenEntry g;
    g.data = {rng.next64(), rng.next64(), rng.next64(), rng.next64()};
    g.entry = scheme.encode(g.data);
    return g;
}

OutcomeCounts
evaluateShard(const EntryScheme& scheme, const GoldenEntry& golden,
              std::uint64_t seed, const Shard& shard)
{
    OutcomeCounts counts;
    auto inject = [&](const Bits288& mask) {
        const Bits288 received = golden.entry ^ mask;
        const EntryDecode result = scheme.decode(received);
        ++counts.trials;
        if (result.status == EntryDecode::Status::due) {
            ++counts.due;
        } else if (result.data == golden.data) {
            ++counts.dce;
        } else {
            ++counts.sdc;
        }
    };

    if (patternIsEnumerable(shard.pattern)) {
        counts.exhaustive = true;
        forEachErrorMaskInRange(shard.pattern, shard.begin, shard.end,
                                inject);
    } else {
        require(shard.begin % kStreamBlockSamples == 0,
                "evaluateShard: shard must start on a stream block");
        for (std::uint64_t b = shard.begin; b < shard.end;
             b += kStreamBlockSamples) {
            Rng rng = Rng::forStream(
                seed,
                blockStream(shard.pattern, b / kStreamBlockSamples));
            const std::uint64_t stop =
                std::min(shard.end, b + kStreamBlockSamples);
            for (std::uint64_t i = b; i < stop; ++i)
                inject(sampleErrorMask(shard.pattern, rng));
        }
    }
    return counts;
}

void
evaluateShardBatched(std::span<SchemeTally> schemes, std::uint64_t seed,
                     const Shard& shard, ShardBatchArena& arena)
{
    const bool exhaustive = patternIsEnumerable(shard.pattern);
    for (SchemeTally& t : schemes) {
        t.counts = OutcomeCounts{};
        t.counts.exhaustive = exhaustive;
    }
    std::size_t filled = 0;

    // Drain the staged masks through the decode and tally stages,
    // once per scheme. Every scheme is a linear code, so a mask is
    // decoded as the error it is, against the all-zero codeword:
    // decode(golden ^ mask) has the same status, and its data differs
    // from golden's exactly where decode(mask)'s data is nonzero.
    // Masks are tallied in draw order, but the counts are order-free
    // anyway.
    auto flush = [&] {
        if (filled == 0)
            return;
        for (SchemeTally& t : schemes) {
            t.scheme->decodeBatch(arena.masks.data(),
                                  arena.decodes.data(), filled);
            OutcomeCounts& counts = t.counts;
            for (std::size_t i = 0; i < filled; ++i) {
                const EntryDecode& result = arena.decodes[i];
                ++counts.trials;
                if (result.status == EntryDecode::Status::due) {
                    ++counts.due;
                } else if (result.data == EntryData{}) {
                    ++counts.dce;
                } else {
                    ++counts.sdc;
                }
            }
        }
        filled = 0;
    };
    auto stage = [&](const Bits288& mask) {
        arena.masks[filled++] = mask;
        if (filled == kShardBatchEntries)
            flush();
    };

    if (exhaustive) {
        forEachErrorMaskInRange(shard.pattern, shard.begin, shard.end,
                                stage);
    } else {
        require(shard.begin % kStreamBlockSamples == 0,
                "evaluateShardBatched: shard must start on a stream "
                "block");
        // A shard's blocks have consecutive stream ids (pattern tag
        // in the high half, block index in the low), so the whole
        // shard's generators derive in one bulk call that shares the
        // seed expansion. Each generator is then consumed in sample
        // order, exactly as the scalar path consumes its per-block
        // forStream generator.
        const std::uint64_t num_blocks =
            (shard.end - shard.begin + kStreamBlockSamples - 1) /
            kStreamBlockSamples;
        if (arena.block_rngs.size() < num_blocks)
            arena.block_rngs.resize(num_blocks);
        Rng::forStreams(seed, shard.stream, num_blocks,
                        arena.block_rngs.data());
        for (std::uint64_t blk = 0; blk < num_blocks; ++blk) {
            Rng& rng = arena.block_rngs[blk];
            const std::uint64_t b =
                shard.begin + blk * kStreamBlockSamples;
            const std::uint64_t stop =
                std::min(shard.end, b + kStreamBlockSamples);
            for (std::uint64_t i = b; i < stop; ++i)
                stage(sampleErrorMask(shard.pattern, rng));
        }
    }
    flush();
}

OutcomeCounts
evaluateShardBatched(const EntryScheme& scheme, const GoldenEntry&,
                     std::uint64_t seed, const Shard& shard,
                     ShardBatchArena& arena)
{
    SchemeTally tally{&scheme, {}};
    evaluateShardBatched({&tally, 1}, seed, shard, arena);
    return tally.counts;
}

} // namespace gpuecc
