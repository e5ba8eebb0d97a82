/**
 * @file
 * Figure 4: measured soft error patterns.
 *
 * (a) breadth/severity class breakdown (SBSE/SBME/MBSE/MBME);
 * (b) MBME breadth histogram in exponentially-growing bins;
 * (c) byte-aligned vs non-byte-aligned multi-bit split with
 *     words-per-entry stacks.
 */

#include <cstdio>

#include "beam/campaign.hpp"
#include "beam/classify.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

using namespace gpuecc;
using namespace gpuecc::beam;

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("runs", "600", "beam runs to simulate");
    cli.addFlag("seed", "0xF164", "random seed");
    cli.parse(argc, argv, "Regenerate Figure 4 (soft error patterns).");

    CampaignConfig cfg;
    cfg.runs =
        static_cast<int>(cli.getIntInRange("runs", 1, kMaxRuns));
    cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    Campaign campaign(cfg);
    campaign.runInBeam();
    const ClassificationResult result = classifyLog(campaign.log());
    const double n = static_cast<double>(result.numEvents());
    std::printf("%llu soft-error events after filtering %zu damaged "
                "entries\n\n",
                static_cast<unsigned long long>(result.numEvents()),
                result.damaged_entries.size());

    std::printf("== Figure 4a: error breadth and severity classes ==\n");
    TextTable classes({"class", "events", "measured", "paper"});
    const std::tuple<SoftErrorEvent::Class, const char*, const char*>
        kinds[] = {
            {SoftErrorEvent::Class::sbse, "SBSE", "65% +- 2.3%"},
            {SoftErrorEvent::Class::sbme, "SBME", "~3.5%"},
            {SoftErrorEvent::Class::mbse, "MBSE", "~3.5%"},
            {SoftErrorEvent::Class::mbme, "MBME", "28% +- 2.1%"},
        };
    for (const auto& [cls, label, paper] : kinds) {
        const auto it = result.class_counts.find(cls);
        const std::uint64_t c =
            it == result.class_counts.end() ? 0 : it->second;
        classes.addRow({label, std::to_string(c),
                        formatPercent(c / n, 1), paper});
    }
    classes.print();

    std::printf("\n== Figure 4b: MBME breadth histogram ==\n");
    const auto breadths = mbmeBreadths(result);
    std::uint64_t max_breadth = 1;
    for (std::uint64_t b : breadths)
        max_breadth = std::max(max_breadth, b);
    ExponentialHistogram hist(max_breadth);
    for (std::uint64_t b : breadths)
        hist.add(b);
    TextTable bhist({"entries affected", "MBME events"});
    for (int b = 0; b < hist.numBins(); ++b) {
        bhist.addRow({std::to_string(hist.binLo(b)) + "-" +
                          std::to_string(hist.binHi(b)),
                      std::to_string(hist.count(b))});
    }
    bhist.print();
    std::printf("broadest error: %llu entries (paper: 5,359)\n",
                static_cast<unsigned long long>(max_breadth));

    std::printf("\n== Figure 4c: multi-bit severity classes ==\n");
    int multi = 0, aligned = 0;
    for (const auto& ev : result.events) {
        multi += ev.multi_bit;
        aligned += ev.byte_aligned;
    }
    std::printf("byte-aligned:     %s of multi-bit (paper 74.6%% "
                "+- 3.8%%)\n",
                formatPercent(static_cast<double>(aligned) /
                                  std::max(multi, 1), 1).c_str());
    std::printf("non-byte-aligned: %s (paper 25.4%%)\n\n",
                formatPercent(static_cast<double>(multi - aligned) /
                                  std::max(multi, 1), 1).c_str());

    TextTable words({"words/entry", "byte-aligned entries",
                     "non-aligned entries"});
    const auto wa = wordsPerEntryHistogram(result, true);
    const auto wn = wordsPerEntryHistogram(result, false);
    for (int w = 1; w <= 4; ++w) {
        words.addRow({std::to_string(w), std::to_string(wa[w]),
                      std::to_string(wn[w])});
    }
    words.print();
    std::printf("(paper: byte-aligned errors mostly 1 word, "
                "occasionally 2; non-aligned mostly all 4)\n");
    return 0;
}
