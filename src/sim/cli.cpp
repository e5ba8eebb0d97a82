#include "sim/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"
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
    cli.addFlag("affinity", "false",
                "pin worker i to hardware thread i (placement hint; "
                "results are byte-identical either way, no-op where "
                "unsupported)");
    cli.addFlag("fleet-workers", "0",
                "fork this many local worker processes and dispatch "
                "shard work units to them over pipes (0 = in-process "
                "unless --fleet-listen; tallies and CSV are "
                "bit-identical either way)");
    cli.addFlag("fleet-unit", "4",
                "shard tasks per fleet work unit (dispatch "
                "granularity; larger amortizes round-trips, smaller "
                "rebalances and re-queues faster)");
    cli.addFlag("fleet-listen", "",
                "also serve this campaign to remote fleet_agent "
                "processes on host:port (\":0\" picks a free port); "
                "agents and any --fleet-workers share the work; "
                "tallies and CSV stay bit-identical");
    cli.addFlag("fleet-secret", "",
                "shared secret authenticating fleet agents (falls "
                "back to $GPUECC_FLEET_SECRET; both sides must "
                "agree, including on the empty default)");
    cli.addFlag("fleet-worker-timeout", "0",
                "seconds a dispatched work unit may stay in flight "
                "before its host is presumed hung and the unit is "
                "re-queued (0 = no deadline)");
    cli.addFlag("fleet-heartbeat-timeout", "10",
                "seconds of silence before a fleet host is presumed "
                "dead (local workers beat at a quarter of this)");
    cli.addFlag("fleet-grace", "30",
                "seconds with no live host before a --fleet-listen "
                "campaign finishes in-process");
    cli.addFlag("fleet-max-unit-attempts", "3",
                "dispatch attempts before a work unit is declared "
                "poisonous and its (scheme, pattern) cell failed");
    cli.addFlag("obs-listen", "",
                "serve read-only live observability for a fleet "
                "campaign on host:port (\":0\" picks a free port): "
                "Prometheus text at /metrics, campaign status JSON at "
                "/status; safe to curl mid-run, never perturbs "
                "determinism (needs a fleet mode)");
    cli.addFlag("journal", "",
                "append every fleet lifecycle event (connect, "
                "dispatch, result, requeue, poison, fallback, drain) "
                "to this NDJSON file, written through with fsync; "
                "replay it with fleet_journal (needs fleet mode)");
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
    CampaignSpec spec;
    spec.samples = static_cast<std::uint64_t>(cli.getInt("samples"));
    spec.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    spec.threads = static_cast<int>(cli.getInt("threads"));
    spec.chunk = static_cast<std::uint64_t>(cli.getInt("chunk"));
    spec.affinity = cli.getBool("affinity");
    spec.fleet_workers =
        static_cast<int>(cli.getInt("fleet-workers"));
    spec.fleet_unit_shards =
        static_cast<std::uint64_t>(cli.getInt("fleet-unit"));
    spec.fleet_listen = cli.getString("fleet-listen");
    spec.fleet_secret = cli.getString("fleet-secret");
    if (spec.fleet_secret.empty()) {
        if (const char* env = std::getenv("GPUECC_FLEET_SECRET"))
            spec.fleet_secret = env;
    }
    spec.fleet_worker_timeout_s =
        cli.getDuration("fleet-worker-timeout", false);
    spec.fleet_heartbeat_timeout_s =
        cli.getDuration("fleet-heartbeat-timeout", true);
    spec.fleet_grace_s = cli.getDuration("fleet-grace", false);
    spec.fleet_max_unit_attempts =
        static_cast<int>(cli.getInt("fleet-max-unit-attempts"));
    spec.obs_listen = cli.getString("obs-listen");
    spec.journal_path = cli.getString("journal");
    spec.checkpoint_path = cli.getString("checkpoint");
    spec.resume = cli.getBool("resume");
    spec.checkpoint_interval_s =
        cli.getDuration("checkpoint-interval", false);
    if (spec.chunk == 0)
        fatal("--chunk must be positive");
    if (spec.threads < 0)
        fatal("--threads must be >= 0 (0 selects all cores)");
    if (spec.fleet_workers < 0 || spec.fleet_workers > 4096)
        fatal("--fleet-workers must be in [0, 4096]");
    if (spec.fleet_unit_shards == 0)
        fatal("--fleet-unit must be positive");
    if (spec.fleet_max_unit_attempts < 1)
        fatal("--fleet-max-unit-attempts must be >= 1");
    if ((!spec.obs_listen.empty() || !spec.journal_path.empty()) &&
        spec.fleet_listen.empty() && spec.fleet_workers == 0)
        fatal("--obs-listen and --journal need a fleet mode "
              "(--fleet-workers or --fleet-listen); both observe the "
              "fleet dispatcher");
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
