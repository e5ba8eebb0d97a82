/**
 * @file
 * Figure 1: historical neutron-beam DRAM soft-error rates and chip
 * capacities across process generations, their exponential
 * regressions, the flat non-bitcell band, and our (simulated) HBM2
 * measurement overlaid.
 */

#include <cmath>
#include <cstdio>

#include "beam/campaign.hpp"
#include "beam/classify.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "reliability/history.hpp"

using namespace gpuecc;
using namespace gpuecc::reliability;

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("runs", "200", "beam runs for the HBM2 measurement");
    cli.parse(argc, argv,
              "Regenerate Figure 1 (historical DRAM SER trends).");

    std::printf("== Figure 1: historical trends ==\n\n");
    TextTable hist({"year", "SER (FIT/chip)", "capacity (Mb)"});
    const auto& ser = historicalDramSer();
    const auto& cap = historicalDramCapacity();
    for (std::size_t i = 0; i < std::max(ser.size(), cap.size()); ++i) {
        hist.addRow(
            {i < ser.size() ? formatFixed(ser[i].year, 0) : "",
             i < ser.size() ? formatFixed(ser[i].value, 0) : "",
             i < cap.size() ? formatFixed(cap[i].value, 0) : ""});
    }
    hist.print();

    const LineFit fser = regressSer();
    const LineFit fcap = regressCapacity();
    std::printf("\nexponential regressions (dotted lines):\n");
    std::printf("  SER(year)      = %.0f * exp(%+.3f * (year-2000)),"
                "  R^2 = %.3f  (halves every %.1f years)\n",
                fser.intercept, fser.slope, fser.r2,
                std::log(0.5) / fser.slope);
    std::printf("  capacity(year) = %.0f * exp(%+.3f * (year-2000)),"
                "  R^2 = %.3f  (doubles every %.1f years)\n",
                fcap.intercept, fcap.slope, fcap.r2,
                std::log(2.0) / fcap.slope);
    std::printf("  => per-chip SER decline outpaces capacity growth: "
                "%s\n",
                -fser.slope > fcap.slope ? "yes (as in the paper)"
                                         : "no");

    const auto [lo, hi] = nonBitcellBand();
    std::printf("\nnon-bitcell upset band (Borucki et al.): "
                "[%.0f, %.0f] FIT/chip\n",
                lo, hi);

    // Our HBM2 point from a simulated campaign.
    beam::CampaignConfig cfg;
    cfg.runs =
        static_cast<int>(cli.getIntInRange("runs", 1, beam::kMaxRuns));
    beam::Campaign campaign(cfg);
    campaign.runInBeam();
    const auto result = beam::classifyLog(campaign.log());
    const double rate = result.numEvents() / campaign.timeSeconds();
    int multi = 0;
    for (const auto& ev : result.events)
        multi += ev.multi_bit;
    const double mb_frac =
        result.numEvents()
            ? static_cast<double>(multi) / result.numEvents()
            : 0.0;
    const auto [all_fit, mb_fit] = hbm2PointFit(
        rate, mb_frac, cfg.beam.acceleration(), cfg.stacks);
    std::printf("\nmeasured HBM2 point (green circle / triangle):\n");
    std::printf("  all events:       %.0f FIT/stack  (%.3f ev/s in "
                "beam, %llu events)\n",
                all_fit, rate,
                static_cast<unsigned long long>(result.numEvents()));
    std::printf("  multi-bit events: %.0f FIT/stack  (%.1f%% of "
                "events)\n",
                mb_fit, 100.0 * mb_frac);
    return 0;
}
