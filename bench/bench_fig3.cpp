/**
 * @file
 * Figure 3: the intermittent-error (displacement damage) experiments.
 *
 * (a) weak-cell counts while modulating the DRAM refresh rate, with
 *     the normal-CDF model overlaid ("X" predictions);
 * (b) the normally-distributed weak-cell retention-time fit;
 * (c) the accumulation of weak cells with cumulative fluence plus a
 *     linear regression (the paper reports R^2 = 0.97).
 */

#include <cstdio>

#include "beam/campaign.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

using namespace gpuecc;
using namespace gpuecc::beam;

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("runs", "250", "beam runs for the accumulation curve");
    cli.addFlag("seed", "0xF163", "random seed");
    cli.parse(argc, argv,
              "Regenerate Figure 3 (intermittent error experiments).");

    CampaignConfig cfg;
    cfg.runs =
        static_cast<int>(cli.getIntInRange("runs", 1, kMaxRuns));
    cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    Campaign campaign(cfg);

    // -- (c) accumulation with cumulative exposure -------------------
    campaign.runInBeam();
    std::printf("== Figure 3c: weak-cell accumulation vs fluence ==\n");
    const auto& acc = campaign.accumulation();
    std::vector<double> xs, ys;
    TextTable curve({"fluence (n/cm^2)", "weak cells (16 ms)"});
    const std::size_t stride = std::max<std::size_t>(1, acc.size() / 12);
    for (std::size_t i = 0; i < acc.size(); i += stride) {
        curve.addRow({formatScientific(acc[i].fluence_n_cm2, 2),
                      std::to_string(acc[i].visible_weak_cells)});
    }
    curve.print();
    for (const AccumulationSample& s : acc) {
        xs.push_back(s.fluence_n_cm2);
        ys.push_back(static_cast<double>(s.visible_weak_cells));
    }
    const LineFit lin = linearRegression(xs, ys);
    std::printf("linear regression: %.2e cells per n/cm^2, "
                "R^2 = %.3f (paper: 0.97)\n\n",
                lin.slope, lin.r2);

    // -- (a) refresh sweep on a heavily damaged GPU ------------------
    campaign.soak(1e11);
    std::printf("== Figure 3a: weak cells vs refresh period ==\n");
    const std::vector<double> periods{8, 16, 24, 32, 40, 48};
    const auto sweep = campaign.refreshSweep(periods);
    std::vector<double> px, py;
    for (const auto& [p, c] : sweep) {
        px.push_back(p);
        py.push_back(static_cast<double>(c));
    }
    // -- (b) fit first so the (a) table can show predictions --------
    const NormalCdfFit fit = fitNormalCdf(px, py);
    TextTable sweep_table({"refresh (ms)", "measured weak cells",
                           "model prediction (X)"});
    for (std::size_t i = 0; i < px.size(); ++i) {
        const double pred =
            fit.n * normalCdf((px[i] - fit.mu) / fit.sigma);
        sweep_table.addRow({formatFixed(px[i], 0),
                            formatFixed(py[i], 0),
                            formatFixed(pred, 0)});
    }
    sweep_table.print();
    std::printf("(paper: 294 at 8 ms, ~1000 at 16 ms, 2656 at 48 ms)\n");

    std::printf("\n== Figure 3b: normal retention-time fit ==\n");
    std::printf("n = %.0f cells, mu = %.2f ms, sigma = %.2f ms "
                "(model inputs: pool %llu, mu %.1f, sigma %.1f)\n",
                fit.n, fit.mu, fit.sigma,
                static_cast<unsigned long long>(
                    cfg.damage.leaky_pool),
                cfg.damage.retention_mu_ms,
                cfg.damage.retention_sigma_ms);

    // -- annealing side-experiment (Section 4) -----------------------
    std::printf("\n== Annealing (Section 4, Error Annealing) ==\n");
    const auto pre8 = campaign.visibleWeakCells(8.0);
    const auto pre48 = campaign.visibleWeakCells(48.0);
    campaign.annealOutsideBeam(3.5);
    const auto post8 = campaign.visibleWeakCells(8.0);
    const auto post48 = campaign.visibleWeakCells(48.0);
    std::printf("3.5 h outside the beam: @8ms %llu -> %llu "
                "(-%.1f%%; paper -26%%), @48ms %llu -> %llu "
                "(-%.1f%%; paper -2.5%%)\n",
                static_cast<unsigned long long>(pre8),
                static_cast<unsigned long long>(post8),
                100.0 * (pre8 - post8) / std::max<double>(pre8, 1),
                static_cast<unsigned long long>(pre48),
                static_cast<unsigned long long>(post48),
                100.0 * (pre48 - post48) / std::max<double>(pre48, 1));
    return 0;
}
