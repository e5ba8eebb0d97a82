/**
 * @file End-to-end integration tests asserting the paper's headline
 * claims (with tolerances appropriate to the sample counts used).
 *
 * The claims are grouped into three test cases so the (expensive)
 * full-registry evaluation runs once per group under ctest's
 * process-per-test execution.
 */

#include <cmath>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "ecc/registry.hpp"
#include "faultsim/evaluator.hpp"
#include "faultsim/weighted.hpp"
#include "reliability/system.hpp"
#include "sim/campaign.hpp"

namespace gpuecc {
namespace {

struct Evaluated
{
    std::map<std::string, WeightedOutcome> weighted;
    std::map<std::string, std::map<ErrorPattern, OutcomeCounts>> raw;
};

Evaluated
evaluateAllSchemes(std::uint64_t samples)
{
    Evaluated out;
    for (const auto& scheme : paperSchemes()) {
        Evaluator ev(*scheme, 0xC1A11);
        auto all = ev.evaluateAll(samples);
        out.weighted[scheme->id()] = weightedOutcome(all);
        out.raw[scheme->id()] = std::move(all);
    }
    return out;
}

TEST(PaperClaims, Figure8WeightedOutcomes)
{
    const Evaluated e = evaluateAllSchemes(60000);
    const WeightedOutcome& base = e.weighted.at("ni-secded");
    const WeightedOutcome& il = e.weighted.at("i-secded");
    const WeightedOutcome& duet = e.weighted.at("duet");
    const WeightedOutcome& ni2b = e.weighted.at("ni-sec2bec");
    const WeightedOutcome& trio = e.weighted.at("trio");
    const WeightedOutcome& ssc = e.weighted.at("i-ssc");
    const WeightedOutcome& ssc_csc = e.weighted.at("i-ssc-csc");
    const WeightedOutcome& dsd = e.weighted.at("ssc-dsd+");

    // "The SEC-DED baseline corrects 74% of events, detecting
    // another 20%, leaving a 5.4% SDC probability."
    EXPECT_NEAR(base.correct, 0.74, 0.02);
    EXPECT_NEAR(base.detect, 0.20, 0.02);
    EXPECT_NEAR(base.sdc, 0.054, 0.007);

    // "Interleaving is able to correct 6.6% more events ... while
    // decreasing the SDC risk by 247x."
    EXPECT_NEAR(il.correct - base.correct, 0.066, 0.01);
    EXPECT_GT(base.sdc / il.sdc, 100.0);
    EXPECT_LT(base.sdc / il.sdc, 700.0);

    // "DuetECC decreases the SDC risk by over three orders of
    // magnitude" (to ~0.0013%).
    EXPECT_LT(duet.sdc, 3e-5);
    EXPECT_GT(base.sdc / duet.sdc, 1000.0);

    // "The SEC-2bEC code represents a resilience regression if it is
    // employed alone" (~9.3% SDC).
    EXPECT_NEAR(ni2b.sdc, 0.093, 0.01);
    EXPECT_GT(ni2b.sdc, base.sdc);

    // "TrioECC offers a 97% correction probability with only
    // 0.0085% SDC risk."
    EXPECT_NEAR(trio.correct, 0.97, 0.01);
    EXPECT_LT(trio.sdc, 2e-4);

    // The abstract's headline: 7.87x fewer uncorrectable errors.
    EXPECT_NEAR((base.detect + base.sdc) / (trio.detect + trio.sdc),
                7.87, 0.5);

    // SSC-DSD+ has by far the lowest SDC risk (~5 orders below
    // SEC-DED).
    for (const auto& [id, w] : e.weighted) {
        if (id != "ssc-dsd+") {
            EXPECT_LE(dsd.sdc, w.sdc) << id;
        }
    }
    EXPECT_LT(dsd.sdc, 1e-5);

    // The correction/SDC trade-off between Duet and Trio.
    EXPECT_GT(trio.correct, duet.correct + 0.1);
    EXPECT_LT(duet.sdc, trio.sdc);

    // "The interleaved SSC codes offer correction capabilities that
    // rival those of TrioECC, but with higher SDC risk."
    EXPECT_NEAR(ssc.correct, trio.correct, 0.01);
    EXPECT_GT(ssc.sdc, trio.sdc);
    EXPECT_GT(ssc.sdc, ssc_csc.sdc);
}

TEST(PaperClaims, ByteErrorsNeverEscapeProposedSchemes)
{
    for (const char* id : {"duet", "trio", "i-ssc-csc", "ssc-dsd+"}) {
        const auto scheme = makeScheme(id);
        Evaluator ev(*scheme, 0xC1A11);
        const OutcomeCounts byte =
            ev.evaluate(ErrorPattern::oneByte, 0);
        EXPECT_TRUE(byte.exhaustive);
        EXPECT_EQ(byte.sdc, 0u) << id;
        if (std::string(id) == "trio") {
            EXPECT_EQ(byte.dceRate(), 1.0); // perfect byte correction
        }
    }
}

TEST(PaperClaims, SystemLevelProjectionsFollowFigure9)
{
    const Evaluated e = evaluateAllSchemes(60000);
    const reliability::HpcSystemModel hpc;
    const double duet_mtti =
        hpc.mttiHours(1.0, e.weighted.at("duet"));
    const double trio_mtti =
        hpc.mttiHours(1.0, e.weighted.at("trio"));
    // TrioECC interrupts ~5.9x less often than DuetECC.
    EXPECT_NEAR(trio_mtti / duet_mtti, 5.9, 0.7);
    // DuetECC's SDC period at scale is in years.
    EXPECT_GT(hpc.mttfHours(1.0, e.weighted.at("duet")),
              365.0 * 24.0);

    const reliability::AvModel av;
    EXPECT_FALSE(av.satisfiesIso26262(e.weighted.at("ni-secded")));
    EXPECT_TRUE(av.satisfiesIso26262(e.weighted.at("duet")));
    EXPECT_TRUE(av.satisfiesIso26262(e.weighted.at("trio")));
    EXPECT_NEAR(av.vehicleSdcFit(e.weighted.at("ni-secded")), 216.0,
                25.0);
}

TEST(ClosedForm, BeatAndEntryNonDueMatchCosetCounts)
{
    // Every decoder here is a syndrome decoder of a linear code, and a
    // uniform mask over a region has a uniform syndrome over the
    // region's syndrome image, so a codeword decodes without a DUE
    // with probability (1 + correctable syndromes) / |image|. Codewords
    // that see disjoint bits are independent. Masks the Table 1 rule
    // reclassifies (<= 3 bits, one byte, one pin) are below 1e-16 of a
    // beat or entry. This holds for any correct sampler stream.
    //  - SEC-DED: 8-bit syndrome, 72 columns: 73/256 per codeword. A
    //    beat is one NI codeword, or 18 bits of each of 4 I codewords;
    //    an entry is 4 whole codewords either way.
    //  - I:SSC, 2 codewords of 18 8-bit symbols: a whole codeword has
    //    the full 16-bit image, 1 + 18 * 255 = 4591 correctable. A beat
    //    fills one nibble of each symbol, and S0 is the symbols' XOR,
    //    so the image has rank 12 with 1 + 18 * 15 = 271 correctable.
    const double secded = 73.0 / 256;
    const std::map<std::pair<std::string, ErrorPattern>, double> exact = {
        {{"ni-secded", ErrorPattern::oneBeat}, secded},
        {{"i-secded", ErrorPattern::oneBeat}, std::pow(secded, 4)},
        {{"ni-secded", ErrorPattern::wholeEntry}, std::pow(secded, 4)},
        {{"i-secded", ErrorPattern::wholeEntry}, std::pow(secded, 4)},
        {{"i-ssc", ErrorPattern::oneBeat}, std::pow(271.0 / 4096, 2)},
        {{"i-ssc", ErrorPattern::wholeEntry},
         std::pow(4591.0 / 65536, 2)},
    };
    for (const std::uint64_t seed : {1, 2}) {
        sim::CampaignSpec spec;
        spec.scheme_ids = {"ni-secded", "i-secded", "i-ssc"};
        spec.patterns = {ErrorPattern::oneBeat, ErrorPattern::wholeEntry};
        spec.samples = 1000000;
        spec.seed = seed;
        spec.threads = 2;
        const sim::CampaignResult r = sim::CampaignRunner(spec).run();
        ASSERT_EQ(r.cells.size(), exact.size());
        for (const sim::CampaignCell& cell : r.cells) {
            const double p = exact.at({cell.scheme_id, cell.pattern});
            const OutcomeCounts& c = cell.counts;
            ASSERT_EQ(c.trials, spec.samples);
            const double non_due =
                1.0 - static_cast<double>(c.due) / c.trials;
            const double z =
                (non_due - p) / std::sqrt(p * (1 - p) / c.trials);
            EXPECT_LE(std::abs(z), 5.0)
                << cell.scheme_id << " " << patternInfo(cell.pattern).label
                << " seed " << seed << ": non-DUE " << non_due
                << ", exact " << p << ", z " << z;
        }
    }
}

} // namespace
} // namespace gpuecc
