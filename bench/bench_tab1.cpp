/**
 * @file
 * Table 1: soft error pattern probabilities.
 *
 * Classifies every reconstructed beam event into the paper's seven
 * shapes (priority to less-difficult patterns) using the severest
 * affected entry, and prints the measured distribution next to the
 * paper's published Table 1. The published numbers are what
 * bench_tab2/bench_fig8 use as evaluation weights, so any residual
 * difference here (the paper does not fully specify its
 * normalization) does not propagate into the ECC results.
 */

#include <cstdio>

#include "beam/campaign.hpp"
#include "beam/classify.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "faultsim/patterns.hpp"

using namespace gpuecc;
using namespace gpuecc::beam;

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("runs", "800", "beam runs to simulate");
    cli.addFlag("seed", "0x7AB1", "random seed");
    cli.parse(argc, argv,
              "Regenerate Table 1 (soft error pattern probabilities).");

    CampaignConfig cfg;
    cfg.runs =
        static_cast<int>(cli.getIntInRange("runs", 1, kMaxRuns));
    cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    Campaign campaign(cfg);
    campaign.runInBeam();
    const ClassificationResult result = classifyLog(campaign.log());
    const auto shapes = shapeDistribution(result);
    const double n = static_cast<double>(result.numEvents());
    std::printf("classified %llu events\n\n",
                static_cast<unsigned long long>(result.numEvents()));

    TextTable table({"Severity", "Bits", "measured", "paper Table 1"});
    const std::pair<ErrorShape, ErrorPattern> rows[] = {
        {ErrorShape::oneBit, ErrorPattern::oneBit},
        {ErrorShape::onePin, ErrorPattern::onePin},
        {ErrorShape::oneByte, ErrorPattern::oneByte},
        {ErrorShape::twoBits, ErrorPattern::twoBits},
        {ErrorShape::threeBits, ErrorPattern::threeBits},
        {ErrorShape::oneBeat, ErrorPattern::oneBeat},
        {ErrorShape::wholeEntry, ErrorPattern::wholeEntry},
    };
    for (const auto& [shape, pattern] : rows) {
        const auto it = shapes.find(shape);
        const std::uint64_t c = it == shapes.end() ? 0 : it->second;
        const PatternInfo& info = patternInfo(pattern);
        table.addRow({info.label, info.bits_range,
                      formatPercent(c / n, 2),
                      formatPercent(info.probability, 2)});
    }
    table.print();
    return 0;
}
