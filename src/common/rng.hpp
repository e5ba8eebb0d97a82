/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Monte Carlo campaigns need a fast, high-quality, seedable generator
 * whose streams are reproducible across platforms; we implement
 * xoshiro256** seeded through SplitMix64 rather than relying on the
 * implementation-defined std::mt19937_64 stream ordering of
 * std::uniform_int_distribution.
 */

#ifndef GPUECC_COMMON_RNG_HPP
#define GPUECC_COMMON_RNG_HPP

#include <cstddef>
#include <cstdint>

namespace gpuecc {

/**
 * xoshiro256** 1.0 generator (Blackman & Vigna), seeded via SplitMix64.
 *
 * All distribution helpers are member functions so results are fully
 * deterministic given a seed, independent of the standard library.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /**
     * Next raw 64-bit value. Inline: the samplers draw one value per
     * 64-bit segment of a corrupted region (5 per entry mask) and one
     * or more per sparse mask, so the call itself is on the hot path.
     */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire's method; bound > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability p. */
    bool nextBool(double p);

    /** Standard normal variate (Box-Muller, cached pair). */
    double nextGaussian();

    /** Poisson variate with given mean (inversion for small, PTRS-like normal approx for large). */
    std::uint64_t nextPoisson(double mean);

    /**
     * Binomial variate: successes in n independent trials with
     * probability p. Exact for small n; Poisson/normal approximations
     * (with complement handling near p = 1) otherwise.
     */
    std::uint64_t nextBinomial(std::uint64_t n, double p);

    /** Exponential variate with given rate (mean 1/rate). */
    double nextExponential(double rate);

    /**
     * Split off an independent child stream.
     *
     * Used so that parallel or per-subsystem streams don't correlate.
     * The child is keyed by 128 bits of parent state (two draws), so
     * split chains cannot collide the way a single-draw reseed could.
     */
    Rng split();

    /**
     * Statelessly derive stream `stream` of the family rooted at
     * `seed`.
     *
     * This is the campaign engine's sharding primitive: shard k of a
     * run always draws from forStream(seed, k), so results are
     * bit-identical for any thread count and any execution order.
     * Streams are decorrelated by perturbing the SplitMix64-expanded
     * seed state with a second SplitMix64 chain (distinct gamma)
     * keyed by the stream index.
     */
    static Rng forStream(std::uint64_t seed, std::uint64_t stream);

    /**
     * Bulk-derive `count` consecutive streams: out[i] is bit-identical
     * to forStream(seed, first_stream + i).
     *
     * The batched shard kernel derives one generator per 1024-sample
     * block of a shard, and a shard's block stream ids are consecutive,
     * so the SplitMix64 expansion of `seed` — identical across all of
     * them — is computed once here instead of once per block.
     */
    static void forStreams(std::uint64_t seed,
                           std::uint64_t first_stream,
                           std::size_t count, Rng* out);

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    double cached_gaussian_ = 0.0;
    bool has_cached_gaussian_ = false;
};

} // namespace gpuecc

#endif // GPUECC_COMMON_RNG_HPP
