/**
 * @file
 * Fleet-scale campaign demo: a 1000-GPU beam fleet plan dispatched
 * to forked worker processes.
 *
 * Plans the paper's system-level projection for a fleet of
 * A100-class GPUs: every scheme is evaluated against all seven
 * Table 1 error patterns on the campaign engine in fleet mode
 * (--fleet-workers forked processes fed from a shared work-unit
 * queue), the per-pattern tallies are weighted into per-event
 * outcome probabilities, and the fleet's raw soft-error FIT
 * (12.51 FIT/Gb x 40GB x N GPUs) is split into the SDC and DUE FIT
 * each ECC organization would leave. The same plan is then re-run
 * in-process and the per-scheme FIT rates are demanded bit-identical
 * — the fleet dispatch changes who evaluates each shard, never what
 * is drawn.
 *
 *   ./build/examples/fleet_demo                      # 4 workers
 *   ./build/examples/fleet_demo --fleet-workers 16
 *   ./build/examples/fleet_demo --gpus 4000 --no-verify
 */

#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "ecc/registry.hpp"
#include "faultsim/weighted.hpp"
#include "reliability/fit.hpp"
#include "sim/campaign.hpp"
#include "sim/cli.hpp"

using namespace gpuecc;

namespace {

std::vector<std::string>
splitCommas(const std::string& text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** Per-scheme FIT projection for the whole fleet. */
struct FleetFit
{
    std::string scheme_id;
    WeightedOutcome outcome;
    double sdc_fit;
    double due_fit;
};

std::vector<FleetFit>
projectFleetFit(const sim::CampaignResult& result,
                const std::vector<std::string>& scheme_ids,
                double fleet_raw_fit)
{
    std::vector<FleetFit> out;
    for (const std::string& id : scheme_ids) {
        if (!result.hasScheme(id))
            continue;
        const WeightedOutcome w =
            weightedOutcome(result.perPattern(id));
        out.push_back({id, w,
                       reliability::sdcFit(fleet_raw_fit, w),
                       reliability::dueFit(fleet_raw_fit, w)});
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("scheme", "ni-secded,duet,trio,i-ssc,ssc-tsd",
                "comma-separated scheme ids to project FIT for");
    cli.addFlag("gpus", "1000", "GPUs in the simulated beam fleet");
    cli.addFlag("gb-per-gpu", "40",
                "HBM2 capacity per GPU in GB (A100 40GB)");
    cli.addFlag("fit-per-gbit", "12.51",
                "raw soft-error rate in FIT/Gb (paper Section 7.3)");
    cli.addFlag("no-verify", "false",
                "skip the in-process re-run and its bit-identity "
                "check against the fleet tallies");
    sim::addCampaignFlags(cli, "100000");
    cli.parse(argc, argv,
              "Dispatch a 1000-GPU beam fleet plan to forked worker "
              "processes and project per-scheme FIT rates.");

    sim::CampaignSpec spec = sim::campaignSpecFromCli(cli);
    spec.scheme_ids = splitCommas(cli.getString("scheme"));
    // All seven Table 1 patterns: the event weighting needs the full
    // row set, so the demo never narrows the pattern list.
    spec.patterns.clear();
    if (spec.fleet_workers == 0)
        spec.fleet_workers = 4; // the demo's point is fleet dispatch

    const double gpus = cli.getDouble("gpus");
    const double gb_per_gpu = cli.getDouble("gb-per-gpu");
    const double fit_per_gbit = cli.getDouble("fit-per-gbit");
    if (gpus <= 0 || gb_per_gpu <= 0 || fit_per_gbit <= 0)
        fatal("--gpus, --gb-per-gpu and --fit-per-gbit must be "
              "positive");
    const double gpu_raw_fit =
        reliability::rawMemoryFit(fit_per_gbit, gb_per_gpu * 8.0);
    const double fleet_raw_fit = gpu_raw_fit * gpus;

    std::printf("== Fleet plan ==\n"
                "%.0f GPUs x %.0f GB HBM2 @ %.2f FIT/Gb\n"
                "raw soft-error FIT: %.3e per GPU, %.3e fleet-wide\n"
                "dispatch: %d worker processes, %llu shard tasks per "
                "unit\n\n",
                gpus, gb_per_gpu, fit_per_gbit, gpu_raw_fit,
                fleet_raw_fit, spec.fleet_workers,
                static_cast<unsigned long long>(
                    spec.fleet_unit_shards));

    const sim::CampaignResult result =
        sim::CampaignRunner(spec).run();
    if (result.interrupted)
        return sim::finalizeCampaign(result, cli);

    const obs::FleetTelemetry& fleet = result.fleet;
    std::printf("== Fleet execution ==\n"
                "%d workers completed %llu units (%llu shards, %llu "
                "trials) in %.2f s; %llu requeued, %llu workers lost\n",
                fleet.workers,
                static_cast<unsigned long long>(fleet.units),
                static_cast<unsigned long long>(
                    result.shards - result.resumed_shards),
                static_cast<unsigned long long>(result.totalTrials()),
                result.seconds,
                static_cast<unsigned long long>(fleet.requeues),
                static_cast<unsigned long long>(fleet.workers_lost));
    for (const obs::FleetWorkerRecord& w : fleet.worker_records) {
        std::printf("  worker %d (pid %lld): %llu units, %llu shards, "
                    "%.2f s busy%s\n",
                    w.worker, static_cast<long long>(w.pid),
                    static_cast<unsigned long long>(w.units),
                    static_cast<unsigned long long>(w.shards),
                    w.busy_seconds, w.lost ? "  LOST" : "");
    }

    const std::vector<FleetFit> fits =
        projectFleetFit(result, spec.scheme_ids, fleet_raw_fit);
    std::printf("\n== Per-scheme fleet FIT projection ==\n");
    TextTable table({"scheme", "P(SDC|event)", "SDC FIT", "DUE FIT",
                     "fleet MTTF (h)"});
    for (const FleetFit& f : fits) {
        table.addRow({f.scheme_id, formatPercent(f.outcome.sdc, 6),
                      formatScientific(f.sdc_fit),
                      formatScientific(f.due_fit),
                      formatScientific(
                          reliability::mttfHours(f.sdc_fit))});
    }
    table.print();

    if (!cli.getBool("no-verify")) {
        std::printf("\n== Bit-identity check (in-process re-run) "
                    "==\n");
        sim::CampaignSpec single = spec;
        single.fleet_workers = 0;
        single.checkpoint_path.clear();
        single.resume = false;
        const sim::CampaignResult reference =
            sim::CampaignRunner(single).run();
        const std::vector<FleetFit> ref_fits =
            projectFleetFit(reference, spec.scheme_ids,
                            fleet_raw_fit);
        bool identical = fits.size() == ref_fits.size() &&
            result.cells.size() == reference.cells.size();
        for (std::size_t i = 0; identical && i < result.cells.size();
             ++i) {
            const OutcomeCounts& a = result.cells[i].counts;
            const OutcomeCounts& b = reference.cells[i].counts;
            identical = a.trials == b.trials && a.dce == b.dce &&
                a.due == b.due && a.sdc == b.sdc;
        }
        // The FIT doubles derive from identical integer tallies by
        // identical arithmetic, so exact equality is the contract.
        for (std::size_t i = 0; identical && i < fits.size(); ++i) {
            identical = fits[i].scheme_id == ref_fits[i].scheme_id &&
                fits[i].sdc_fit == ref_fits[i].sdc_fit &&
                fits[i].due_fit == ref_fits[i].due_fit;
        }
        std::printf("per-scheme FIT rates bit-identical to the "
                    "single-process run: %s\n",
                    identical ? "yes" : "NO");
        if (!identical) {
            std::printf("ERROR: fleet and in-process runs "
                        "diverged\n");
            return 1;
        }
    }
    return sim::finalizeCampaign(result, cli);
}
