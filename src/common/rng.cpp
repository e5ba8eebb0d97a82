#include "common/rng.hpp"

#include <cmath>

#include "common/log.hpp"

namespace gpuecc {

namespace {

std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto& s : s_)
        s = splitmix64(x);
    // xoshiro must not start from the all-zero state.
    if (!(s_[0] | s_[1] | s_[2] | s_[3]))
        s_[0] = 1;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    require(bound > 0, "Rng::nextBounded bound must be positive");
    // Lemire's nearly-divisionless method with rejection for exactness.
    std::uint64_t x = next64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        const std::uint64_t t = -bound % bound;
        while (l < t) {
            x = next64();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

double
Rng::nextGaussian()
{
    if (has_cached_gaussian_) {
        has_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    const double u2 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_gaussian_ = r * std::sin(theta);
    has_cached_gaussian_ = true;
    return r * std::cos(theta);
}

std::uint64_t
Rng::nextPoisson(double mean)
{
    require(mean >= 0.0, "Rng::nextPoisson mean must be non-negative");
    if (mean == 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth inversion in the log domain for numerical safety.
        const double l = std::exp(-mean);
        std::uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= nextDouble();
        } while (p > l);
        return k - 1;
    }
    // Normal approximation with continuity correction; adequate for the
    // large event counts used by the beam simulator.
    const double g = nextGaussian();
    const double v = mean + std::sqrt(mean) * g + 0.5;
    return v < 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

std::uint64_t
Rng::nextBinomial(std::uint64_t n, double p)
{
    require(p >= 0.0 && p <= 1.0, "Rng::nextBinomial p out of range");
    if (n == 0 || p == 0.0)
        return 0;
    if (p == 1.0)
        return n;
    if (p > 0.5)
        return n - nextBinomial(n, 1.0 - p);
    if (n <= 64) {
        std::uint64_t k = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            k += nextBool(p);
        return k;
    }
    const double mean = static_cast<double>(n) * p;
    if (mean < 30.0) {
        // Poisson approximation in the rare-event regime.
        return std::min(n, nextPoisson(mean));
    }
    // Normal approximation with continuity correction.
    const double sd = std::sqrt(mean * (1.0 - p));
    const double v = mean + sd * nextGaussian() + 0.5;
    if (v < 0.0)
        return 0;
    return std::min(n, static_cast<std::uint64_t>(v));
}

double
Rng::nextExponential(double rate)
{
    require(rate > 0.0, "Rng::nextExponential rate must be positive");
    double u = 0.0;
    do {
        u = nextDouble();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

Rng
Rng::split()
{
    const std::uint64_t hi = next64();
    const std::uint64_t lo = next64();
    return forStream(hi, lo);
}

namespace {

/**
 * Perturb a SplitMix64-expanded base state with the stream chain —
 * the common tail of forStream and forStreams, factored so the bulk
 * path cannot drift from the stateless one.
 */
void
applyStreamPerturbation(const std::uint64_t (&base)[4],
                        std::uint64_t stream, std::uint64_t (&s)[4])
{
    // Second SplitMix64 chain with a distinct odd gamma: two streams
    // of the same seed (or one stream of two seeds) end up with
    // unrelated xoshiro states without consuming any generator output.
    std::uint64_t y = stream;
    for (int i = 0; i < 4; ++i) {
        y += 0xD1B54A32D192ED03ull;
        std::uint64_t z = y;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        s[i] = base[i] ^ z ^ (z >> 31);
    }
    if (!(s[0] | s[1] | s[2] | s[3]))
        s[0] = 1;
}

} // namespace

Rng
Rng::forStream(std::uint64_t seed, std::uint64_t stream)
{
    Rng r(seed);
    std::uint64_t base[4] = {r.s_[0], r.s_[1], r.s_[2], r.s_[3]};
    applyStreamPerturbation(base, stream, r.s_);
    return r;
}

void
Rng::forStreams(std::uint64_t seed, std::uint64_t first_stream,
                std::size_t count, Rng* out)
{
    // One SplitMix64 seed expansion shared by every derived stream.
    const Rng root(seed);
    std::uint64_t base[4] = {root.s_[0], root.s_[1], root.s_[2],
                             root.s_[3]};
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = root;
        applyStreamPerturbation(
            base, first_stream + static_cast<std::uint64_t>(i),
            out[i].s_);
    }
}

} // namespace gpuecc
