/**
 * @file
 * Section 5, "Effect of DRAM Utilization": sweeping the
 * microbenchmark's DRAM access rate shows that the rate of
 * broad-and-severe logic errors (MBSE+MBME) is proportional to the
 * number of memory accesses, while narrow array errors (SBSE+SBME)
 * are proportional to exposure time - the paper's evidence that the
 * multi-bit errors originate in DRAM logic structures rather than
 * direct cell strikes.
 */

#include <cstdio>

#include "beam/campaign.hpp"
#include "beam/classify.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

using namespace gpuecc;
using namespace gpuecc::beam;

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("runs", "400", "beam runs per utilization point");
    cli.addFlag("seed", "0x0712", "random seed");
    cli.parse(argc, argv,
              "Regenerate the Section 5 DRAM-utilization sweep.");

    TextTable table({"utilization", "SB events/hour", "MB events/hour",
                     "MB fraction"});
    double mb_rate_full = 0.0;

    for (const double util : {0.25, 0.5, 0.75, 1.0}) {
        CampaignConfig cfg;
        cfg.runs =
            static_cast<int>(cli.getIntInRange("runs", 1, kMaxRuns));
        cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
        cfg.micro.utilization = util;
        Campaign campaign(cfg);
        campaign.runInBeam();
        const ClassificationResult result =
            classifyLog(campaign.log());
        const double hours = campaign.timeSeconds() / 3600.0;
        std::uint64_t sb = 0, mb = 0;
        for (const auto& ev : result.events)
            (ev.multi_bit ? mb : sb) += 1;
        const double mb_rate = mb / hours;
        if (util == 1.0)
            mb_rate_full = mb_rate;
        table.addRow({formatFixed(util, 2),
                      formatFixed(sb / hours, 1),
                      formatFixed(mb_rate, 1),
                      formatPercent(
                          static_cast<double>(mb) / (sb + mb), 1)});
    }
    table.print();
    (void)mb_rate_full;

    std::printf("\npaper finding: MB (logic) error rate is "
                "proportional to memory accesses, while SB (array)\n"
                "error rate is proportional to exposure time - the "
                "SB column should stay flat while the MB\ncolumn "
                "scales ~linearly with utilization.\n");
    return 0;
}
