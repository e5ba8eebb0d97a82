/** @file Tests for the (72, 64) Hsiao SEC-DED construction. */

#include <map>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "codes/hsiao.hpp"
#include "codes/linear_code.hpp"
#include "common/bitops.hpp"

namespace gpuecc {
namespace {

std::vector<unsigned>
columnsOf(const Gf2Matrix& h)
{
    std::vector<unsigned> cols(h.cols());
    for (int c = 0; c < h.cols(); ++c) {
        unsigned v = 0;
        for (int r = 0; r < h.rows(); ++r)
            v |= static_cast<unsigned>(h.get(r, c)) << r;
        cols[c] = v;
    }
    return cols;
}

/**
 * One column arrangement under test. It prints as its name, which test
 * discovery uses to name the cases; a bare function pointer would print
 * as an address that address-space randomisation moves on every run.
 */
struct Arrangement
{
    const char* name;
    Gf2Matrix (*matrix)();
};

void
PrintTo(const Arrangement& a, std::ostream* os)
{
    *os << a.name;
}

class HsiaoMatrixTest : public ::testing::TestWithParam<Arrangement>
{
};

TEST_P(HsiaoMatrixTest, Shape)
{
    const Gf2Matrix h = GetParam().matrix();
    EXPECT_EQ(h.rows(), 8);
    EXPECT_EQ(h.cols(), 72);
    EXPECT_EQ(h.rank(), 8);
}

TEST_P(HsiaoMatrixTest, MinimumOddWeightColumns)
{
    const auto cols = columnsOf(GetParam().matrix());
    std::map<int, int> weight_histogram;
    for (unsigned c : cols)
        ++weight_histogram[popcount64(c)];
    // All 56 weight-3 columns, 8 weight-5, 8 weight-1 checks.
    EXPECT_EQ(weight_histogram[1], 8);
    EXPECT_EQ(weight_histogram[3], 56);
    EXPECT_EQ(weight_histogram[5], 8);
}

TEST_P(HsiaoMatrixTest, ColumnsDistinctAndNonzero)
{
    const auto cols = columnsOf(GetParam().matrix());
    const std::set<unsigned> unique(cols.begin(), cols.end());
    EXPECT_EQ(unique.size(), 72u);
    EXPECT_EQ(unique.count(0), 0u);
}

TEST_P(HsiaoMatrixTest, ChecksAtEnd)
{
    const Gf2Matrix h = GetParam().matrix();
    for (int r = 0; r < 8; ++r) {
        for (int c = 64; c < 72; ++c)
            EXPECT_EQ(h.get(r, c), c - 64 == r ? 1 : 0);
    }
}

TEST_P(HsiaoMatrixTest, IsSecDedAsCode)
{
    const Code72 code(GetParam().matrix());
    EXPECT_TRUE(code.isSec());
    EXPECT_TRUE(code.isDed());
}

INSTANTIATE_TEST_SUITE_P(
    Arrangements, HsiaoMatrixTest,
    ::testing::Values(Arrangement{"Calibrated", &hsiao7264Matrix},
                      Arrangement{"Lexicographic", &hsiao7264LexMatrix}));

TEST(HsiaoArrangement, SameMultisetDifferentOrder)
{
    const auto a = columnsOf(hsiao7264Matrix());
    const auto b = columnsOf(hsiao7264LexMatrix());
    EXPECT_NE(a, b);
    EXPECT_EQ(std::multiset<unsigned>(a.begin(), a.end()),
              std::multiset<unsigned>(b.begin(), b.end()));
}

/**
 * The calibrated arrangement must keep the byte-error SDC rate of
 * non-interleaved SEC-DED near the paper's reported ~23% (the
 * lexicographic arrangement sits near 32%).
 */
TEST(HsiaoArrangement, CalibratedByteSdcNearPaper)
{
    const Code72 code(hsiao7264Matrix());
    // Exhaustive byte-error sweep at the codeword level.
    long sdc = 0, total = 0;
    const std::uint64_t data = 0xDEADBEEF12345678ull;
    const Bits72 golden = code.encode(data);
    for (int byte = 0; byte < 9; ++byte) {
        for (unsigned m = 1; m < 256; ++m) {
            if (popcount64(m) < 2)
                continue;
            Bits72 received = golden;
            for (int t = 0; t < 8; ++t) {
                if ((m >> t) & 1)
                    received.flip(8 * byte + t);
            }
            const CodewordDecode d =
                code.decode(received, Code72::Mode::secDed);
            ++total;
            if (d.status == CodewordDecode::Status::due)
                continue;
            const Bits72 fixed = received ^ d.correction;
            if (code.extractData(fixed) != data)
                ++sdc;
        }
    }
    const double rate = static_cast<double>(sdc) / total;
    EXPECT_NEAR(rate, 0.23, 0.01);
}

} // namespace
} // namespace gpuecc
