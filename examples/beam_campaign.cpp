/**
 * @file
 * End-to-end simulated neutron-beam campaign.
 *
 * Runs the DRAM microbenchmark on a simulated 32GB HBM2 GPU in the
 * beam, then applies the paper's post-processing pipeline:
 * intermittent (displacement-damage) filtering, event
 * reconstruction, and soft-error classification. Finishes with the
 * out-of-beam refresh-rate experiment and the normal retention fit.
 *
 *   ./build/examples/beam_campaign --runs 300 --seed 7
 */

#include <cstdio>

#include "beam/campaign.hpp"
#include "beam/classify.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "sim/report.hpp"

using namespace gpuecc;
using namespace gpuecc::beam;

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("runs", "300", "microbenchmark runs in the beam");
    cli.addFlag("seed", "0xBEA3", "random seed");
    cli.addFlag("json", "", "write a campaign summary to this file");
    cli.addFlag("trace", "",
                "write a Chrome trace-event JSON of the campaign "
                "phases to this file");
    cli.parse(argc, argv, "Simulate a neutron beam testing campaign.");

    const std::string trace_path = cli.getString("trace");
    if (!trace_path.empty())
        obs::startTrace(trace_path);

    CampaignConfig cfg;
    cfg.runs =
        static_cast<int>(cli.getIntInRange("runs", 1, kMaxRuns));
    cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed"));

    std::printf("== In the beam ==\n");
    Campaign campaign(cfg);
    {
        obs::TraceSpan span("in-beam", "beam");
        campaign.runInBeam();
    }
    std::printf("beam time: %.0f s, fluence: %.3e n/cm^2, "
                "log records: %zu\n",
                campaign.timeSeconds(), campaign.fluence(),
                campaign.log().size());

    std::printf("\n== Post-processing ==\n");
    const ClassificationResult result = [&] {
        obs::TraceSpan span("post-process", "beam");
        return classifyLog(campaign.log());
    }();
    std::printf("damaged (intermittent) entries filtered: %zu\n",
                result.damaged_entries.size());
    std::printf("soft-error events reconstructed: %llu\n\n",
                static_cast<unsigned long long>(result.numEvents()));

    const double n = static_cast<double>(result.numEvents());
    TextTable classes({"class", "events", "fraction"});
    const std::pair<SoftErrorEvent::Class, const char*> kinds[] = {
        {SoftErrorEvent::Class::sbse, "SBSE (single-bit single-entry)"},
        {SoftErrorEvent::Class::sbme, "SBME (single-bit multi-entry)"},
        {SoftErrorEvent::Class::mbse, "MBSE (multi-bit single-entry)"},
        {SoftErrorEvent::Class::mbme, "MBME (multi-bit multi-entry)"},
    };
    for (const auto& [cls, label] : kinds) {
        const auto it = result.class_counts.find(cls);
        const std::uint64_t c =
            it == result.class_counts.end() ? 0 : it->second;
        classes.addRow({label, std::to_string(c),
                        formatPercent(c / n, 2)});
    }
    classes.print();

    int multi = 0, aligned = 0;
    for (const auto& ev : result.events) {
        multi += ev.multi_bit;
        aligned += ev.byte_aligned;
    }
    std::printf("\nmulti-bit events: %s of all events; byte-aligned: "
                "%s of multi-bit\n",
                formatPercent(multi / n, 1).c_str(),
                formatPercent(multi ? static_cast<double>(aligned) /
                                          multi : 0.0, 1).c_str());

    std::printf("\n== Out of the beam: refresh-rate experiment ==\n");
    const std::vector<double> periods{8, 16, 24, 32, 40, 48};
    const auto sweep = [&] {
        obs::TraceSpan span("refresh-sweep", "beam");
        campaign.soak(1e11); // heavily damage the GPU first
        return campaign.refreshSweep(periods);
    }();
    std::vector<double> xs, ys;
    TextTable refresh({"refresh period (ms)", "weak cells"});
    for (const auto& [p, count] : sweep) {
        refresh.addRow({formatFixed(p, 0), std::to_string(count)});
        xs.push_back(p);
        ys.push_back(static_cast<double>(count));
    }
    refresh.print();

    const NormalCdfFit fit = fitNormalCdf(xs, ys);
    std::printf("\nnormal retention-time fit (paper Figure 3b): "
                "n=%.0f cells, mu=%.1f ms, sigma=%.1f ms\n",
                fit.n, fit.mu, fit.sigma);

    std::printf("\nannealing 3.5 h outside the beam...\n");
    const auto pre8 = campaign.visibleWeakCells(8.0);
    const auto pre48 = campaign.visibleWeakCells(48.0);
    {
        obs::TraceSpan span("anneal", "beam");
        campaign.annealOutsideBeam(3.5);
    }
    std::printf("weak cells @8ms: %llu -> %llu; @48ms: %llu -> %llu\n",
                static_cast<unsigned long long>(pre8),
                static_cast<unsigned long long>(
                    campaign.visibleWeakCells(8.0)),
                static_cast<unsigned long long>(pre48),
                static_cast<unsigned long long>(
                    campaign.visibleWeakCells(48.0)));

    const std::string path = cli.getString("json");
    if (!path.empty()) {
        sim::JsonWriter json;
        json.beginObject();
        json.kv("runs", static_cast<std::uint64_t>(cfg.runs));
        json.kv("seed", cfg.seed);
        json.kv("beam_seconds", campaign.timeSeconds());
        json.kv("fluence", campaign.fluence());
        json.kv("log_records",
                static_cast<std::uint64_t>(campaign.log().size()));
        json.kv("damaged_entries",
                static_cast<std::uint64_t>(
                    result.damaged_entries.size()));
        json.kv("events", result.numEvents());
        json.key("class_counts").beginObject();
        for (const auto& [cls, label] : kinds) {
            const auto it = result.class_counts.find(cls);
            json.kv(label, it == result.class_counts.end()
                               ? std::uint64_t{0}
                               : it->second);
        }
        json.endObject();
        json.key("retention_fit").beginObject();
        json.kv("n", fit.n);
        json.kv("mu_ms", fit.mu);
        json.kv("sigma_ms", fit.sigma);
        json.endObject();
        obs::RunManifest manifest;
        manifest.tool = obs::toolName();
        manifest.build = obs::buildInfo();
        manifest.threads = 1; // the beam simulation is sequential
        manifest.chaos = obs::chaosEnvText();
        manifest.samples = static_cast<std::uint64_t>(cfg.runs);
        manifest.seed = cfg.seed;
        manifest.traced = obs::traceEnabled();
        json.key("manifest");
        sim::writeRunManifest(json, manifest);
        json.endObject();
        if (Status s = sim::saveTextFile(path, json.str()); !s.ok()) {
            warn("beam_campaign: summary write failed: " +
                 s.toString());
            return 1;
        }
    }
    if (obs::traceEnabled()) {
        if (Status s = obs::stopTraceAndWrite(); !s.ok()) {
            warn("beam_campaign: trace write failed: " +
                 s.toString());
            return 1;
        }
        std::printf("wrote %s\n", trace_path.c_str());
    }
    return 0;
}
