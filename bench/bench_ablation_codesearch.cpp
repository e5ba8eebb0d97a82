/**
 * @file
 * Ablation: reproducing the paper's genetic-algorithm design step
 * for the SEC-2bEC code.
 *
 * Runs the randomized code search at several budgets and compares
 * the resulting non-aligned 2-bit miscorrection risk against the
 * published Equation 3 matrix, demonstrating that the published
 * code sits at the quality level the search converges to. The
 * budget x seed grid cells are independent, so they run on the
 * shared thread pool; each cell seeds its own Rng, keeping the
 * table identical for any --threads value.
 */

#include <cstdio>
#include <vector>

#include "codes/code_search.hpp"
#include "codes/linear_code.hpp"
#include "codes/sec2bec.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "sim/campaign.hpp"
#include "sim/report.hpp"

using namespace gpuecc;

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("seeds", "3", "search seeds per budget");
    cli.addFlag("threads", "1",
                "worker threads for the search grid (0 = one per "
                "hardware thread)");
    cli.addFlag("json", "", "write results to this JSON file");
    cli.parse(argc, argv,
              "Ablation: randomized SEC-2bEC code search vs the "
              "published Eq. 3 matrix.");
    // The grid holds one cell per (budget, seed).
    const auto num_seeds = static_cast<std::uint64_t>(
        cli.getIntInRange("seeds", 1, 1000000));
    const auto threads = static_cast<int>(
        cli.getIntInRange("threads", 0, sim::kMaxWorkers));

    const Code72 paper(sec2becPaperMatrix(), Code72::adjacentPairs());
    const double paper_rate = paper.nonAligned2bMiscorrectionRate();
    std::printf("published Eq. 3 matrix: %.2f%% of non-aligned 2-bit "
                "errors alias to an aligned-pair syndrome\n\n",
                100.0 * paper_rate);

    const std::vector<int> budgets = {1000, 5000, 20000, 60000};
    struct GridCell
    {
        int budget;
        std::uint64_t seed;
        double rate;
    };
    std::vector<GridCell> grid;
    for (const int budget : budgets) {
        for (std::uint64_t seed = 1; seed <= num_seeds; ++seed)
            grid.push_back({budget, seed, 0.0});
    }
    ThreadPool(threads).parallelFor(grid.size(), [&](std::uint64_t i) {
        Rng rng(grid[i].seed);
        grid[i].rate =
            searchSec2bEcCode(rng, grid[i].budget).miscorrection_rate;
    });

    sim::JsonWriter json;
    json.beginObject();
    json.kv("paper_miscorrection", paper_rate);
    json.key("search").beginArray();
    TextTable table({"search budget", "seed", "miscorrection",
                     "vs paper code"});
    for (const GridCell& cell : grid) {
        char rel[32];
        std::snprintf(rel, sizeof(rel), "%+.1f%%",
                      100.0 * (cell.rate - paper_rate));
        table.addRow({std::to_string(cell.budget),
                      std::to_string(cell.seed),
                      formatPercent(cell.rate, 2), rel});
        json.beginObject();
        json.kv("budget", cell.budget);
        json.kv("seed", cell.seed);
        json.kv("miscorrection", cell.rate);
        json.endObject();
    }
    json.endArray();
    table.print();

    std::printf("\nEvery searched code is SEC-DED with unique "
                "aligned-pair syndromes by construction;\nthe search "
                "only optimizes the miscorrection tail that TrioECC's "
                "sanity check then suppresses.\n");

    // The DAEC comparison behind the paper's "~20% reduction" claim:
    // correcting all 71 adjacent pairs (Dutta & Touba style) exposes
    // roughly twice as many alias targets as the 36 aligned pairs.
    std::printf("\n== vs SEC-DED-DAEC (corrects all adjacent pairs) "
                "==\n");
    TextTable daec({"code", "correctable pairs", "miscorrection"});
    double daec_rate = 0.0;
    {
        Rng rng(1);
        const CodeSearchResult r = searchDaecCode(rng, 30000);
        daec_rate = r.miscorrection_rate;
        daec.addRow({"searched DAEC", "71",
                     formatPercent(r.miscorrection_rate, 2)});
    }
    daec.addRow({"paper Eq. 3 (aligned only)", "36",
                 formatPercent(paper_rate, 2)});
    daec.print();
    std::printf("\naligned-only reduces the non-correctable 2-bit "
                "miscorrection risk by %.0f%% relative to our\n"
                "searched DAEC (structurally, 36 alias targets vs 71; "
                "the paper quotes ~20%%, consistent with\ncomparing "
                "against the stronger published Dutta-Touba "
                "construction rather than a hill-climbed\nDAEC). "
                "Either way the interleave maps byte errors onto "
                "exactly the aligned symbols, so\nnothing is lost by "
                "not correcting the other adjacent pairs.\n",
                100.0 * (1.0 - paper_rate / daec_rate));

    json.kv("daec_miscorrection", daec_rate);
    json.endObject();
    const std::string path = cli.getString("json");
    if (!path.empty())
        sim::writeTextFile(path, json.str());
    return 0;
}
