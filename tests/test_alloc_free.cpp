/**
 * @file
 * The campaign's hot paths allocate nothing.
 *
 * This binary replaces the global operator new with a counting one,
 * which is why these tests live in a binary of their own: the
 * replacement applies to everything linked into it. The decode of
 * every paper scheme, the mask sampler of every pattern and a warmed
 * shard-kernel call must leave the heap alone. A heap allocation per
 * entry costs more than the table lookups of the decode it serves, so
 * an accidental one (a check that builds its message before it knows
 * it failed) shows up here before it shows up in a benchmark.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/codec_mode.hpp"
#include "common/rng.hpp"
#include "ecc/registry.hpp"
#include "faultsim/patterns.hpp"
#include "faultsim/shard.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void*
countedAlloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void*
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    return std::aligned_alloc(a, (n + a - 1) / a * a);
}

// Out of line, so that a compiler inlining operator delete does not
// pair this free() with the operator new it sees at the call site
// (g++ -Wmismatched-new-delete).
[[gnu::noinline]] void
release(void* p) noexcept
{
    std::free(p);
}

} // namespace

void*
operator new(std::size_t n)
{
    if (void* p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return countedAlloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return countedAlloc(n);
}

void*
operator new(std::size_t n, std::align_val_t al)
{
    if (void* p = countedAlignedAlloc(n, al))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept
{
    release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

namespace gpuecc {
namespace {

constexpr std::uint64_t kSeed = 0xA110CF5EE;

std::uint64_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

/** Named mask sets: enumerated 3 Bits, sampled beats and entries. */
std::vector<std::pair<std::string, std::vector<Bits288>>>
maskSets()
{
    std::vector<std::pair<std::string, std::vector<Bits288>>> sets;
    std::vector<Bits288> three;
    forEachErrorMaskInRange(ErrorPattern::threeBits, 0, 1,
                            [&](const Bits288& m) {
                                if (three.size() < 4096)
                                    three.push_back(m);
                            });
    sets.emplace_back("3 Bits", std::move(three));
    for (const ErrorPattern p :
         {ErrorPattern::oneBeat, ErrorPattern::wholeEntry}) {
        Rng rng(kSeed + static_cast<std::uint64_t>(p));
        std::vector<Bits288> masks;
        for (int i = 0; i < 4096; ++i)
            masks.push_back(sampleErrorMask(p, rng));
        sets.emplace_back(patternInfo(p).label, std::move(masks));
    }
    return sets;
}

TEST(AllocFree, DecodeBatchOfEveryPaperSchemeAllocatesNothing)
{
    if (useReferenceCodec())
        GTEST_SKIP() << "the reference codec allocates by design";
    const auto sets = maskSets();
    std::vector<EntryDecode> out(kShardBatchEntries);
    std::vector<Bits288> received(kShardBatchEntries);
    for (const auto& scheme : paperSchemes()) {
        const GoldenEntry golden = makeGolden(*scheme, kSeed);
        for (const auto& [name, masks] : sets) {
            scheme->decodeBatch(masks.data(), out.data(), 1);
            const std::uint64_t before = allocations();
            for (std::size_t off = 0; off < masks.size();
                 off += kShardBatchEntries) {
                const std::size_t n = std::min(kShardBatchEntries,
                                               masks.size() - off);
                // The error itself, then the error in a golden entry.
                scheme->decodeBatch(masks.data() + off, out.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    received[i] = golden.entry ^ masks[off + i];
                scheme->decodeBatch(received.data(), out.data(), n);
            }
            EXPECT_EQ(allocations() - before, 0u)
                << scheme->id() << " on " << name;
        }
    }
}

TEST(AllocFree, SampleErrorMaskAllocatesNothingForAnyPattern)
{
    for (const ErrorPattern p : allErrorPatterns()) {
        Rng rng(kSeed);
        sampleErrorMask(p, rng);
        int nonzero = 0;
        const std::uint64_t before = allocations();
        for (int i = 0; i < 4096; ++i)
            nonzero += !sampleErrorMask(p, rng).none();
        EXPECT_EQ(allocations() - before, 0u) << patternInfo(p).label;
        EXPECT_EQ(nonzero, 4096) << patternInfo(p).label;
    }
}

TEST(AllocFree, WarmedShardKernelAllocatesAtMostOnce)
{
    // forEachErrorMaskInRange takes a std::function, whose closure
    // may live on the heap: one allocation per enumerable shard is
    // the budget. Sampled shards reuse the warmed arena's generators.
    if (useReferenceCodec())
        GTEST_SKIP() << "the reference codec allocates by design";
    const auto schemes = paperSchemes();
    auto arena = std::make_unique<ShardBatchArena>();
    for (const ErrorPattern p : allErrorPatterns()) {
        const Shard shard = planShards(p, 8192, 4096).front();
        for (const auto& scheme : schemes) {
            const GoldenEntry golden = makeGolden(*scheme, kSeed);
            evaluateShardBatched(*scheme, golden, kSeed, shard, *arena);
            const std::uint64_t before = allocations();
            const OutcomeCounts counts = evaluateShardBatched(
                *scheme, golden, kSeed, shard, *arena);
            EXPECT_LE(allocations() - before, 1u)
                << scheme->id() << " on " << patternInfo(p).label;
            EXPECT_GT(counts.trials, 0u);
        }
    }
}

} // namespace
} // namespace gpuecc
