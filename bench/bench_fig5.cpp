/**
 * @file
 * Figure 5: multi-bit error severity in bits per word, for
 * byte-aligned and non-byte-aligned errors, against the
 * random-corruption expectation (binomial with p = 1/2 conditioned
 * on >= 2 bits) and the ~15% full-inversion anomaly.
 */

#include <cmath>
#include <cstdio>

#include "beam/campaign.hpp"
#include "beam/classify.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

using namespace gpuecc;
using namespace gpuecc::beam;

namespace {

/** Binomial(n, 1/2) pmf conditioned on k >= 2. */
double
conditionedBinomial(int n, int k)
{
    double log_comb = 0.0;
    for (int i = 0; i < k; ++i)
        log_comb += std::log(static_cast<double>(n - i) / (i + 1));
    const double p = std::exp(log_comb - n * std::log(2.0));
    const double p0 = std::exp(-n * std::log(2.0));
    const double p1 = n * std::exp(-n * std::log(2.0));
    return p / (1.0 - p0 - p1);
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("runs", "800", "beam runs to simulate");
    cli.addFlag("seed", "0xF165", "random seed");
    cli.parse(argc, argv, "Regenerate Figure 5 (error severity).");

    CampaignConfig cfg;
    cfg.runs =
        static_cast<int>(cli.getIntInRange("runs", 1, kMaxRuns));
    cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    Campaign campaign(cfg);
    campaign.runInBeam();
    const ClassificationResult result = classifyLog(campaign.log());

    // -- (a) byte-aligned: bits per word over 2..8 -------------------
    std::printf("== Figure 5a: byte-aligned severity ==\n");
    const auto ba = severityHistogram(result, true);
    double total = 0;
    for (int k = 2; k <= 8; ++k)
        total += static_cast<double>(ba[k]);
    TextTable ta({"bits/word", "measured", "random expectation"});
    for (int k = 2; k <= 8; ++k) {
        ta.addRow({std::to_string(k),
                   formatPercent(ba[k] / std::max(total, 1.0), 1),
                   formatPercent(conditionedBinomial(8, k), 1)});
    }
    ta.print();
    std::printf("full-byte (8-bit) inversions: %s of byte-aligned "
                "words (paper: ~15%% anomaly above the random "
                "expectation)\n\n",
                formatPercent(ba[8] / std::max(total, 1.0), 1).c_str());

    // -- (b) non-aligned: bits per word over 2..64, bucketed ---------
    std::printf("== Figure 5b: non-byte-aligned severity ==\n");
    const auto na = severityHistogram(result, false);
    double ntotal = 0;
    for (int k = 2; k <= 64; ++k)
        ntotal += static_cast<double>(na[k]);
    TextTable tb({"bits/word", "measured", "random expectation"});
    const std::pair<int, int> buckets[] = {{2, 8},   {9, 16},  {17, 24},
                                           {25, 32}, {33, 40}, {41, 48},
                                           {49, 56}, {57, 63}, {64, 64}};
    for (const auto& [lo, hi] : buckets) {
        double measured = 0, expected = 0;
        for (int k = lo; k <= hi; ++k) {
            measured += static_cast<double>(na[k]);
            expected += conditionedBinomial(64, k);
        }
        tb.addRow({std::to_string(lo) + "-" + std::to_string(hi),
                   formatPercent(measured / std::max(ntotal, 1.0), 1),
                   formatPercent(expected, 1)});
    }
    tb.print();
    std::printf("full-word (64-bit) inversions: %s of non-aligned "
                "words (the data-dependent anomaly)\n",
                formatPercent(na[64] / std::max(ntotal, 1.0), 1)
                    .c_str());
    std::printf("\n(The paper chooses the harder uniform-random "
                "model for ECC evaluation; so does bench_tab2.)\n");
    return 0;
}
