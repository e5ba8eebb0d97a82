#include "fleet/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>

#include "common/status.hpp"
#include "common/subprocess.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"

namespace gpuecc::sim::fleet {

WorkerMessage
evaluateUnit(const CampaignPlan& plan, const WorkUnit& unit, int worker,
             ShardBatchArena& arena, std::uint64_t& retries)
{
    WorkerMessage out;
    out.unit = unit.unit;
    out.worker = worker;
    out.checkpoint.done.reserve(unit.task_count);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = unit.first_task;
         i < unit.first_task + unit.task_count; ++i) {
        Result<OutcomeCounts> counts =
            plan.evaluateTask(i, arena, retries);
        if (!counts.ok()) {
            out.kind = WorkerMessage::Kind::unit_error;
            out.message = counts.status().message();
            break;
        }
        out.checkpoint.done.push_back({i, counts.value()});
    }
    out.busy_us = microsBetween(start, std::chrono::steady_clock::now());
    return out;
}

int
fleetWorkerMain(const CampaignPlan& plan, int worker, int read_fd,
                int write_fd, int heartbeat_interval_ms)
{
    LineReader in(read_fd);
    // Every result proves which plan its task indices index.
    const std::string fingerprint = plan.fingerprint();

    // Writes come from this thread (results) and the heartbeat
    // thread; serialize them so lines never interleave mid-frame.
    std::mutex write_mutex;
    const auto send = [&](const std::string& line) -> Status {
        std::lock_guard<std::mutex> lock(write_mutex);
        return writeAllFd(write_fd, line);
    };

    // A line this worker cannot serve retires it: say why in a
    // worker_error line (the exit code is the backstop for when even
    // that write fails).
    const auto refuse = [&](const std::string& message) {
        send(encodeWorkerErrorLine(worker, message));
        return kWorkerProtocolExit;
    };

    // Beat on an interval so the dispatcher can tell "busy evaluating"
    // from "dead"; a chaos-stalled process goes silent, which is what
    // makes the silent-host scenario reproducible. A failed beat is
    // not fatal here — the read loop surfaces the broken stream on its
    // next pass.
    std::jthread heartbeat([&](std::stop_token stop) {
        std::mutex mutex;
        std::condition_variable_any tick;
        std::unique_lock<std::mutex> lock(mutex);
        while (!tick.wait_for(
            lock, stop,
            std::chrono::milliseconds(heartbeat_interval_ms),
            [&stop] { return stop.stop_requested(); })) {
            if (!chaosStalled())
                send(encodeHeartbeatLine(worker));
        }
    });

    ShardBatchArena arena;
    std::uint64_t units_done = 0;

    for (;;) {
        Result<std::string> line = in.readLine();
        if (line.status().code() == ErrorCode::notFound)
            return 0; // dispatcher hung up
        if (!line.ok())
            return kWorkerProtocolExit;

        Result<ServerMessage> decoded = decodeServerLine(line.value());
        if (!decoded.ok())
            return refuse(decoded.status().toString());
        if (decoded.value().kind == ServerMessage::Kind::shutdown)
            return 0;
        const WorkUnit& unit = decoded.value().unit;
        if (unit.first_task > plan.tasks.size() ||
            unit.task_count > plan.tasks.size() - unit.first_task)
            return refuse("unit " + std::to_string(unit.unit) +
                          " is outside the plan");

        // Chaos kill-point: simulates this host crashing (or hanging)
        // as the unit arrives — before any result bytes are written.
        chaosOnFleetUnitStart(worker, unit.unit, units_done);

        const std::uint64_t start_us = obs::traceNowUs();
        std::uint64_t retries = 0;
        WorkerMessage result =
            evaluateUnit(plan, unit, worker, arena, retries);
        ++units_done;
        const bool failed = result.kind == WorkerMessage::Kind::unit_error;

        // Ship telemetry *before* the unit's settlement line: the
        // liaison awaiting that settlement is guaranteed to still be
        // reading, so the last unit's telemetry can never be lost to
        // a liaison that shuts down right after the final result. The
        // unit's retries are its one counter (the dispatcher adds
        // them up host-labelled), sent only when there were any.
        {
            WorkerMessage telemetry;
            telemetry.kind = WorkerMessage::Kind::telemetry;
            telemetry.worker = worker;
            telemetry.unit = unit.unit;
            if (retries > 0)
                telemetry.counters.emplace_back(kShardRetriesCounter,
                                                retries);
            if (!failed) {
                SpanRecord span;
                span.name = "unit " + std::to_string(unit.unit);
                span.cat = "fleet";
                span.ts_us = start_us;
                span.dur_us = result.busy_us;
                span.unit = unit.unit;
                telemetry.spans.push_back(std::move(span));
            }
            // Best-effort: a failed send surfaces on the settlement
            // line right below.
            send(encodeTelemetryLine(telemetry));
        }

        result.checkpoint.fingerprint = fingerprint;
        const std::string reply =
            failed ? encodeUnitErrorLine(unit.unit, worker, result.message)
                   : encodeResultLine(result);
        if (!send(reply).ok())
            return kWorkerProtocolExit;
    }
}

} // namespace gpuecc::sim::fleet
