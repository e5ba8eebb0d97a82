#include "fleet/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "common/codec_mode.hpp"
#include "common/status.hpp"
#include "common/subprocess.hpp"
#include "fleet/protocol.hpp"
#include "obs/metrics.hpp"
#include "sim/campaign_core.hpp"
#include "sim/chaos.hpp"

namespace gpuecc::sim::fleet {

int
fleetWorkerMain(int read_fd, int write_fd, int heartbeat_interval_ms)
{
    LineReader in(read_fd, kMaxWireLineBytes);

    Result<std::string> config_line = in.readLine();
    if (!config_line.ok())
        return kWorkerProtocolExit;
    Result<FleetConfig> config = decodeConfigLine(config_line.value());
    if (!config.ok()) {
        // The nonzero exit code is the backstop for when even the
        // write fails.
        writeAllFd(write_fd,
                   encodeWorkerErrorLine(-1, config.status().toString()));
        return kWorkerSetupExit;
    }
    const FleetConfig& cfg = config.value();

    // Config receipt is this worker's clock epoch: every timestamp it
    // ships (heartbeat now_us, telemetry spans) is "µs since now", so
    // the dispatcher can rebase them onto its own trace clock.
    const auto config_at = std::chrono::steady_clock::now();
    const auto sinceConfig = [config_at] {
        return microsBetween(config_at, std::chrono::steady_clock::now());
    };

    // Writes come from this thread (results) and the heartbeat
    // thread; serialize them so lines never interleave mid-frame.
    std::mutex write_mutex;
    const auto send = [&](const std::string& line) -> Status {
        std::lock_guard<std::mutex> lock(write_mutex);
        return writeAllFd(write_fd, line);
    };

    // Setup failures travel back as a worker_error line so the
    // dispatcher can log *why* instead of just seeing a hangup.
    const auto bail = [&](const std::string& message) {
        send(encodeWorkerErrorLine(cfg.worker, message));
        return kWorkerSetupExit;
    };

    setCodecBackend(cfg.codec_backend == "reference"
                        ? CodecBackend::reference
                        : CodecBackend::compiled);

    // Rebuild the plan exactly as the dispatcher did and prove it with
    // the fingerprint: a unit's task indices are only meaningful
    // against an identical plan. The dispatcher resolved these same
    // ids before sending the config, so a scheme failing here is a
    // genuine environment fault, not a planning error.
    std::vector<CampaignError> skipped;
    Result<CampaignPlan> built =
        CampaignPlan::build(cfg.scheme_ids, cfg.patterns, cfg.samples,
                            cfg.seed, cfg.chunk, skipped);
    if (!skipped.empty())
        return bail("scheme " + skipped.front().scheme_id + ": " +
                    skipped.front().message);
    if (!built.ok())
        return bail(built.status().toString());
    const CampaignPlan& plan = built.value();
    const std::string fingerprint = plan.fingerprint();
    if (fingerprint != cfg.fingerprint) {
        return bail("plan fingerprint mismatch\n  parent: " +
                    cfg.fingerprint + "\n  worker: " + fingerprint);
    }

    // Beat on an interval so the dispatcher can tell "busy evaluating"
    // from "dead"; a chaos-stalled process goes silent, which is what
    // makes the silent-host scenario reproducible. A failed beat is
    // not fatal here — the read loop surfaces the broken stream on its
    // next pass. The beat carries this host's clock so every heartbeat
    // doubles as a clock-offset sample.
    std::jthread heartbeat([&](std::stop_token stop) {
        std::mutex mutex;
        std::condition_variable_any tick;
        std::unique_lock<std::mutex> lock(mutex);
        while (!tick.wait_for(
            lock, stop,
            std::chrono::milliseconds(heartbeat_interval_ms),
            [&stop] { return stop.stop_requested(); })) {
            if (!chaosStalled())
                send(encodeHeartbeatLine(cfg.worker, sinceConfig()));
        }
    });

    ShardBatchArena arena;
    std::uint64_t units_done = 0;

    // Telemetry shipping: the metrics this host accrues per unit are
    // shipped as deltas against this rolling baseline, so the
    // dispatcher can re-aggregate them host-labelled without ever
    // double-counting.
    obs::MetricsRegistry& reg = obs::metrics();
    reg.flushThisThread();
    obs::MetricsSnapshot metrics_baseline = reg.snapshot();

    for (;;) {
        Result<std::string> line = in.readLine();
        if (line.status().code() == ErrorCode::notFound)
            return 0; // dispatcher hung up
        if (!line.ok())
            return kWorkerProtocolExit;

        Result<ServerMessage> decoded = decodeServerLine(line.value());
        if (!decoded.ok()) {
            bail(decoded.status().toString());
            return kWorkerProtocolExit;
        }
        if (decoded.value().kind == ServerMessage::Kind::shutdown)
            return 0;
        const WorkUnit& unit = decoded.value().unit;
        if (unit.first_task + unit.task_count > plan.tasks.size()) {
            bail("unit " + std::to_string(unit.unit) +
                 " is outside the plan");
            return kWorkerProtocolExit;
        }

        // Chaos kill-point: simulates this host crashing (or hanging)
        // as the unit arrives — before any result bytes are written.
        chaosOnFleetUnitStart(cfg.worker, unit.unit, units_done);

        WorkerMessage result;
        result.unit = unit.unit;
        result.worker = cfg.worker;
        result.checkpoint.fingerprint = fingerprint;
        result.checkpoint.done.reserve(unit.task_count);
        const auto unit_start = std::chrono::steady_clock::now();
        std::string failure;
        for (std::uint64_t i = unit.first_task;
             i < unit.first_task + unit.task_count; ++i) {
            Result<OutcomeCounts> counts = plan.evaluateTask(i, arena);
            if (!counts.ok()) {
                failure = counts.status().message();
                break;
            }
            result.checkpoint.done.push_back({i, counts.value()});
        }
        result.busy_us = microsBetween(
            unit_start, std::chrono::steady_clock::now());
        ++units_done;

        // Ship telemetry *before* the unit's settlement line: the
        // liaison awaiting that settlement is guaranteed to still be
        // reading, so the last unit's telemetry can never be lost to
        // a liaison that shuts down right after the final result.
        {
            WorkerMessage telemetry;
            telemetry.kind = WorkerMessage::Kind::telemetry;
            telemetry.worker = cfg.worker;
            telemetry.unit = unit.unit;
            telemetry.now_us = sinceConfig();
            reg.flushThisThread();
            obs::MetricsSnapshot now = reg.snapshot();
            const obs::MetricsSnapshot delta =
                now.since(metrics_baseline);
            metrics_baseline = std::move(now);
            for (const obs::CounterValue& c : delta.counters) {
                if (c.value > 0)
                    telemetry.counters.emplace_back(c.name, c.value);
            }
            if (failure.empty()) {
                SpanRecord span;
                span.name = "unit " + std::to_string(unit.unit);
                span.cat = "fleet";
                span.ts_us = microsBetween(config_at, unit_start);
                span.dur_us = result.busy_us;
                span.unit = unit.unit;
                telemetry.spans.push_back(std::move(span));
            }
            // Best-effort: a failed send surfaces on the settlement
            // line right below.
            send(encodeTelemetryLine(telemetry));
        }

        const std::string reply =
            failure.empty()
                ? encodeResultLine(result)
                : encodeUnitErrorLine(unit.unit, cfg.worker, failure);
        if (!send(reply).ok()) {
            // A graceful drain requeues the unit in flight and hangs
            // up without waiting for it, so the reply can find the
            // pipe closed; the shutdown line written before the hangup
            // is still buffered, and a drained worker exits cleanly.
            Result<std::string> next = in.readLine(0);
            if (next.ok()) {
                Result<ServerMessage> msg = decodeServerLine(next.value());
                if (msg.ok() &&
                    msg.value().kind == ServerMessage::Kind::shutdown)
                    return 0;
            }
            return kWorkerProtocolExit;
        }
    }
}

} // namespace gpuecc::sim::fleet
