/** @file Field-axiom and table tests for GF(2^8). */

#include <bit>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gf256/gf256.hpp"

namespace gpuecc {
namespace gf256 {
namespace {

TEST(Gf256, AdditionIsXor)
{
    EXPECT_EQ(add(0x53, 0xCA), 0x99);
    EXPECT_EQ(add(0xFF, 0xFF), 0);
}

TEST(Gf256, MultiplicativeIdentityAndZero)
{
    for (int a = 0; a < 256; ++a) {
        EXPECT_EQ(mul(static_cast<std::uint8_t>(a), 1), a);
        EXPECT_EQ(mul(static_cast<std::uint8_t>(a), 0), 0);
    }
}

TEST(Gf256, AlphaIsPrimitive)
{
    // x (= 0x02) must generate all 255 nonzero elements.
    std::set<int> seen;
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
        seen.insert(x);
        x = mul(x, 2);
    }
    EXPECT_EQ(seen.size(), 255u);
    EXPECT_EQ(x, 1); // order exactly 255
}

/** Reference: schoolbook carry-less multiply then reduce by 0x163. */
std::uint8_t
carrylessMul(std::uint8_t a, std::uint8_t b)
{
    unsigned acc = 0;
    for (int i = 0; i < 8; ++i) {
        if ((b >> i) & 1)
            acc ^= static_cast<unsigned>(a) << i;
    }
    for (int bit = 15; bit >= 8; --bit) {
        if ((acc >> bit) & 1)
            acc ^= primitivePoly << (bit - 8);
    }
    return static_cast<std::uint8_t>(acc);
}

TEST(Gf256, MulMatchesCarrylessReference)
{
    Rng rng(1);
    for (int trial = 0; trial < 2000; ++trial) {
        const auto a = static_cast<std::uint8_t>(rng.nextBounded(256));
        const auto b = static_cast<std::uint8_t>(rng.nextBounded(256));
        ASSERT_EQ(mul(a, b), carrylessMul(a, b))
            << int(a) << "*" << int(b);
    }
}

TEST(Gf256, InverseProperty)
{
    for (int a = 1; a < 256; ++a) {
        const auto ua = static_cast<std::uint8_t>(a);
        EXPECT_EQ(mul(ua, inv(ua)), 1) << a;
    }
}

TEST(Gf256, DivisionConsistent)
{
    Rng rng(2);
    for (int trial = 0; trial < 1000; ++trial) {
        const auto a = static_cast<std::uint8_t>(rng.nextBounded(256));
        const auto b =
            static_cast<std::uint8_t>(1 + rng.nextBounded(255));
        EXPECT_EQ(mul(div(a, b), b), a);
    }
}

TEST(Gf256, DlogAlphaPowInverse)
{
    for (int e = 0; e < 255; ++e)
        EXPECT_EQ(dlog(alphaPow(e)), e);
    for (int a = 1; a < 256; ++a)
        EXPECT_EQ(alphaPow(dlog(static_cast<std::uint8_t>(a))), a);
}

TEST(Gf256, AlphaPowNegativeExponents)
{
    EXPECT_EQ(alphaPow(-1), inv(alphaPow(1)));
    EXPECT_EQ(alphaPow(-255), 1);
    EXPECT_EQ(alphaPow(255), 1);
    EXPECT_EQ(alphaPow(256), alphaPow(1));
}

TEST(Gf256, Distributivity)
{
    Rng rng(3);
    for (int trial = 0; trial < 1000; ++trial) {
        const auto a = static_cast<std::uint8_t>(rng.nextBounded(256));
        const auto b = static_cast<std::uint8_t>(rng.nextBounded(256));
        const auto c = static_cast<std::uint8_t>(rng.nextBounded(256));
        EXPECT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
    }
}

TEST(Gf256, PolyEvalHorner)
{
    // p(x) = 3 + 5x + x^2 at x = 2: 3 ^ (5*2) ^ (2*2) = 3 ^ 10 ^ 4.
    const std::vector<std::uint8_t> p{3, 5, 1};
    EXPECT_EQ(polyEval(p, 2), add(add(3, mul(5, 2)), mul(2, 2)));
    EXPECT_EQ(polyEval(p, 0), 3);
    EXPECT_EQ(polyEval({}, 7), 0);
}

TEST(Gf256, ConstantMulMatrixMatchesMul)
{
    Rng rng(4);
    for (int trial = 0; trial < 200; ++trial) {
        const auto c = static_cast<std::uint8_t>(rng.nextBounded(256));
        const auto x = static_cast<std::uint8_t>(rng.nextBounded(256));
        const auto cols = constantMulMatrix(c);
        std::uint8_t acc = 0;
        for (int b = 0; b < 8; ++b) {
            if ((x >> b) & 1)
                acc ^= cols[b];
        }
        EXPECT_EQ(acc, mul(c, x));
    }
}

/**
 * How a product c * x is formed: `scalar` is gf256::mul through the
 * log/antilog tables; `fold` XORs the products c * 2^t of x's set
 * bits, lowest bit first, the recurrence SyndromeGather builds its
 * Reed-Solomon rows with.
 */
enum class MulPath
{
    scalar,
    fold
};

/** acc ^ c * x, formed along @p path. */
std::uint8_t
mulAcc(MulPath path, std::uint8_t c, std::uint8_t x, std::uint8_t acc)
{
    if (path == MulPath::scalar)
        return static_cast<std::uint8_t>(acc ^ mul(c, x));
    for (unsigned v = x; v != 0; v &= v - 1)
        acc ^= mul(c, static_cast<std::uint8_t>(1u << std::countr_zero(v)));
    return acc;
}

std::uint8_t
product(MulPath path, std::uint8_t c, std::uint8_t x)
{
    return mulAcc(path, c, x, 0);
}

/**
 * Exhaustive checks over the whole operand square for each way a
 * product is formed. The suite keeps the names it had while it also
 * drove the SIMD kernels (HostIsas/Gf256Simd.<test>/scalar), so each
 * test's history carries on.
 */
class Gf256Simd : public ::testing::TestWithParam<MulPath>
{
};

TEST_P(Gf256Simd, ExhaustiveMultiplySquare)
{
    const MulPath path = GetParam();
    for (int c = 0; c < 256; ++c) {
        const auto uc = static_cast<std::uint8_t>(c);
        for (int x = 0; x < 256; ++x) {
            const auto ux = static_cast<std::uint8_t>(x);
            ASSERT_EQ(product(path, uc, ux), carrylessMul(uc, ux))
                << "c=" << c << " x=" << x;
        }
    }
}

TEST_P(Gf256Simd, ExhaustiveMultiplyAccumulateSquare)
{
    const MulPath path = GetParam();
    for (int c = 0; c < 256; ++c) {
        const auto uc = static_cast<std::uint8_t>(c);
        for (int x = 0; x < 256; ++x) {
            const auto ux = static_cast<std::uint8_t>(x);
            const auto acc = static_cast<std::uint8_t>(x * 7 + c); // arbitrary
            ASSERT_EQ(mulAcc(path, uc, ux, acc),
                      static_cast<std::uint8_t>(acc ^ carrylessMul(uc, ux)))
                << "c=" << c << " x=" << x;
        }
    }
}

TEST_P(Gf256Simd, ExhaustiveDivideSquare)
{
    const MulPath path = GetParam();
    for (int c = 1; c < 256; ++c) {
        const auto uc = static_cast<std::uint8_t>(c);
        ASSERT_EQ(div(0, uc), 0) << "0 / c must be 0; c=" << c;
        for (int x = 1; x < 256; ++x) {
            const auto ux = static_cast<std::uint8_t>(x);
            const std::uint8_t q = div(ux, uc);
            ASSERT_EQ(product(path, q, uc), ux) << "c=" << c << " x=" << x;
            ASSERT_EQ(q, product(path, ux, inv(uc)))
                << "c=" << c << " x=" << x;
        }
    }
}

TEST_P(Gf256Simd, ExhaustiveInverse)
{
    const MulPath path = GetParam();
    for (int x = 1; x < 256; ++x) {
        const auto ux = static_cast<std::uint8_t>(x);
        const std::uint8_t ix = inv(ux);
        ASSERT_EQ(product(path, ux, ix), 1) << "x * x^-1 must be 1; x=" << x;
        ASSERT_EQ(inv(ix), ux) << "x=" << x;
        ASSERT_EQ(ix, alphaPow(-dlog(ux))) << "x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(
    HostIsas, Gf256Simd, ::testing::Values(MulPath::scalar, MulPath::fold),
    [](const auto& info) {
        return std::string(info.param == MulPath::scalar ? "scalar"
                                                         : "fold");
    });

TEST(Gf256Properties, MultiplicationAssociativeAndDistributive)
{
    Rng rng(0xA550Cull);
    for (int trial = 0; trial < 50000; ++trial) {
        const auto a = static_cast<std::uint8_t>(rng.nextBounded(256));
        const auto b = static_cast<std::uint8_t>(rng.nextBounded(256));
        const auto c = static_cast<std::uint8_t>(rng.nextBounded(256));
        ASSERT_EQ(mul(mul(a, b), c), mul(a, mul(b, c)));
        ASSERT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        ASSERT_EQ(mul(a, b), mul(b, a));
    }
}

TEST(Gf256Properties, EveryNonzeroElementHasUniqueInverse)
{
    bool seen[256] = {};
    for (int x = 1; x < 256; ++x) {
        const std::uint8_t ix = inv(static_cast<std::uint8_t>(x));
        ASSERT_EQ(mul(static_cast<std::uint8_t>(x), ix), 1);
        ASSERT_FALSE(seen[ix]) << "inverse map must be a bijection";
        seen[ix] = true;
    }
}

} // namespace
} // namespace gf256
} // namespace gpuecc
