/**
 * @file
 * Autonomous-vehicle safety assessment (Section 7.3 of the paper).
 *
 * Measures each ECC organization's per-event outcome profile, then
 * evaluates a GPU-accelerated vehicle against the ISO 26262 ASIL-D
 * 10-FIT silent-data-corruption budget and projects fleet-level
 * daily event counts for the US driving population.
 *
 *   ./build/examples/av_safety --samples 200000
 */

#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "ecc/registry.hpp"
#include "faultsim/evaluator.hpp"
#include "faultsim/shard.hpp"
#include "faultsim/weighted.hpp"
#include "reliability/system.hpp"

using namespace gpuecc;

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("samples", "200000",
                "Monte Carlo samples for beat/entry patterns");
    cli.addFlag("fit-per-gbit", "12.51", "raw HBM2 soft error rate");
    cli.addFlag("gb", "40", "HBM2 capacity per vehicle GPU (GB)");
    cli.parse(argc, argv,
              "ISO 26262 safety assessment of GPU DRAM ECC options.");

    reliability::AvModel av;
    av.fit_per_gbit = cli.getDouble("fit-per-gbit");
    av.gb_per_vehicle = cli.getDouble("gb");

    std::printf("vehicle GPU memory: %.0f GB HBM2 at %.2f FIT/Gb "
                "(raw %.0f FIT)\n",
                av.gb_per_vehicle, av.fit_per_gbit,
                av.vehicleRawFit());
    std::printf("ISO 26262 ASIL-D SDC budget: %.0f FIT\n\n",
                av.iso26262_sdc_fit_limit);

    TextTable table({"scheme", "SDC FIT/vehicle", "ASIL-D?",
                     "fleet SDC/day", "fleet DUE/day"});
    const auto samples = static_cast<std::uint64_t>(cli.getIntInRange(
        "samples", 0, static_cast<std::int64_t>(kMaxSampledSamples)));
    for (const auto& scheme : paperSchemes()) {
        Evaluator ev(*scheme);
        const WeightedOutcome w =
            weightedOutcome(ev.evaluateAll(samples));
        table.addRow({scheme->name(),
                      formatFixed(av.vehicleSdcFit(w), 3),
                      av.satisfiesIso26262(w) ? "yes" : "NO",
                      formatFixed(av.fleetSdcPerDay(w), 2),
                      formatFixed(av.fleetDuePerDay(w), 0)});
    }
    table.print();

    std::printf("\nfleet exposure model: 225.8M US drivers x 51 "
                "min/day = %.2e GPU-hours/day\n",
                av.fleet_hours_per_day);
    return 0;
}
