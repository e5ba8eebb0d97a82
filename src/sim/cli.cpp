#include "sim/cli.hpp"

#include <cstdio>
#include <limits>

#include "common/log.hpp"
#include "faultsim/shard.hpp"
#include "obs/trace.hpp"
#include "sim/report.hpp"

namespace gpuecc::sim {

void
addCampaignFlags(Cli& cli, const std::string& default_samples)
{
    cli.addFlag("samples", default_samples,
                "Monte Carlo samples for beat/entry patterns");
    cli.addFlag("seed", "0x5EED",
                "campaign seed (results bit-identical per seed)");
    cli.addFlag("threads", "1",
                "worker threads (0 = one per hardware thread)");
    cli.addFlag("chunk", "65536", "samples per shard");
    cli.addFlag("fleet-workers", "0",
                "fork this many local worker processes and dispatch "
                "shard work units to them over pipes (0 = in-process; "
                "tallies and CSV are bit-identical either way)");
    cli.addFlag("fleet-unit", "4",
                "shard tasks per fleet work unit (dispatch "
                "granularity; larger amortizes round-trips, smaller "
                "rebalances and re-queues faster)");
    cli.addFlag("fleet-worker-timeout", "0",
                "seconds a dispatched work unit may stay in flight "
                "before its worker is presumed hung and the unit is "
                "re-queued (0 = no deadline)");
    cli.addFlag("fleet-heartbeat-timeout", "10",
                "seconds of silence before a fleet worker is presumed "
                "dead (workers beat at a quarter of this)");
    cli.addFlag("fleet-max-unit-attempts", "3",
                "dispatch attempts before a work unit is declared "
                "poisonous and its (scheme, pattern) cell failed");
    cli.addFlag("json", "", "write campaign results to this JSON file");
    cli.addFlag("csv", "", "write campaign results to this CSV file");
    cli.addFlag("checkpoint", "",
                "persist progress to this file (atomic; also flushed "
                "on SIGINT/SIGTERM)");
    cli.addFlag("resume", "false",
                "restore completed shards from --checkpoint before "
                "running (bit-identical to an uninterrupted run)");
    cli.addFlag("checkpoint-interval", "30",
                "min seconds between periodic checkpoint writes (0 = "
                "write continuously; each write covers every shard "
                "completed since the previous one)");
    cli.addFlag("trace", "",
                "write a Chrome trace-event JSON (Perfetto-loadable) "
                "of campaign phases, shards, and checkpoint flushes "
                "to this file");
    cli.addFlag("progress", "false",
                "force the live progress line on stderr (default: "
                "auto-enabled when stderr is a TTY)");
    cli.addFlag("quiet", "false",
                "suppress the live progress line (wins over "
                "--progress)");
}

CampaignSpec
campaignSpecFromCli(const Cli& cli)
{
    // Every integer flag is range-checked before it is narrowed, so no
    // value wraps into a different, legal-looking one.
    constexpr std::int64_t kMaxInt64 =
        std::numeric_limits<std::int64_t>::max();
    constexpr auto kMaxSamples =
        static_cast<std::int64_t>(kMaxSampledSamples);
    CampaignSpec spec;
    spec.samples = static_cast<std::uint64_t>(
        cli.getIntInRange("samples", 0, kMaxSamples));
    spec.seed = static_cast<std::uint64_t>(
        cli.getIntInRange("seed", 0, kMaxInt64));
    spec.threads =
        static_cast<int>(cli.getIntInRange("threads", 0, kMaxWorkers));
    spec.chunk = static_cast<std::uint64_t>(
        cli.getIntInRange("chunk", 1, kMaxSamples));
    spec.fleet_workers = static_cast<int>(
        cli.getIntInRange("fleet-workers", 0, kMaxWorkers));
    spec.fleet_unit_shards = static_cast<std::uint64_t>(
        cli.getIntInRange("fleet-unit", 1, kMaxInt64));
    spec.fleet_worker_timeout_s =
        cli.getDuration("fleet-worker-timeout", false);
    spec.fleet_heartbeat_timeout_s =
        cli.getDuration("fleet-heartbeat-timeout", true);
    spec.fleet_max_unit_attempts =
        static_cast<int>(cli.getIntInRange(
            "fleet-max-unit-attempts", 1,
            std::numeric_limits<int>::max()));
    spec.checkpoint_path = cli.getString("checkpoint");
    spec.resume = cli.getBool("resume");
    spec.checkpoint_interval_s =
        cli.getDuration("checkpoint-interval", false);
    if (spec.resume && spec.checkpoint_path.empty())
        fatal("--resume needs --checkpoint to name the file");
    if (cli.getBool("quiet"))
        spec.progress = obs::ProgressMode::off;
    else if (cli.getBool("progress"))
        spec.progress = obs::ProgressMode::on;
    else
        spec.progress = obs::ProgressMode::autoTty;
    const std::string trace = cli.getString("trace");
    if (!trace.empty())
        obs::startTrace(trace);
    return spec;
}

Status
emitCampaignArtifacts(const CampaignResult& result, const Cli& cli)
{
    const std::string json = cli.getString("json");
    if (!json.empty()) {
        if (Status s = saveTextFile(json, campaignJson(result));
            !s.ok())
            return s;
    }
    const std::string csv = cli.getString("csv");
    if (!csv.empty()) {
        if (Status s = saveTextFile(csv, campaignCsv(result)); !s.ok())
            return s;
    }
    return {};
}

namespace {

/** Flush the --trace buffer to disk; 0 on success or no trace. */
int
writeTraceIfStarted()
{
    if (!obs::traceEnabled())
        return 0;
    const std::string path = obs::tracePath();
    if (Status s = obs::stopTraceAndWrite(); !s.ok()) {
        warn("campaign: trace write failed: " + s.toString());
        return 1;
    }
    inform("campaign: wrote trace to " + path);
    return 0;
}

} // namespace

int
finalizeCampaign(const CampaignResult& result, const Cli& cli)
{
    for (const CampaignError& e : result.errors) {
        warn("campaign: scheme " + e.scheme_id + " skipped: " +
             e.message);
    }
    if (result.interrupted) {
        // A partial trace is still viewable; flush it before exiting.
        writeTraceIfStarted();
        const std::string& path = result.spec.checkpoint_path;
        std::string hint = "rerun with --resume";
        if (!path.empty())
            hint += " --checkpoint " + path;
        std::fprintf(stderr, "campaign interrupted; %s to continue\n",
                     hint.c_str());
        return 130; // 128 + SIGINT, the conventional interrupt code
    }
    if (Status s = emitCampaignArtifacts(result, cli); !s.ok()) {
        warn("campaign: artifact write failed: " + s.toString());
        writeTraceIfStarted();
        return 1;
    }
    return writeTraceIfStarted();
}

} // namespace gpuecc::sim
