#include "fleet/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/subprocess.hpp"
#include "fleet/dispatch.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"

namespace gpuecc::sim::fleet {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Poll slice: how long a liaison waits for its worker's next line or
 * for a unit to claim (a requeue or the last settlement wakes it at
 * once).
 */
constexpr int kPollMs = 200;

int
elapsedMs(Clock::time_point since)
{
    return static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - since)
            .count());
}

/**
 * One forked local worker's transport state: its pipe pair, process
 * and liaison thread. Its credit and fate live in the dispatcher's
 * ledger.
 */
struct Host
{
    int worker = -1; //!< dense worker index (the ledger row's key)
    int read_fd = -1;
    int write_fd = -1;
    std::int64_t pid = -1;
    std::unique_ptr<LineReader> reader;
    std::thread thread;
    /** Claimed for this worker before any liaison thread runs. */
    std::optional<std::uint64_t> first_unit;

    /** Close the pipes and reap the worker (killing it first when it
        is being retired); returns its exit code. */
    int close(bool kill)
    {
        closeFd(write_fd);
        closeFd(read_fd);
        if (kill)
            killChild(pid);
        Result<int> exit = waitForExit(pid);
        pid = -1;
        return exit.ok() ? exit.value() : -1;
    }
};

} // namespace

Result<CampaignResult>
runFleetService(const CampaignSpec& spec)
{
    if (!subprocessSupported()) {
        return Status::unavailable(
            "fleet mode needs fork/pipe, which this platform lacks; "
            "run without --fleet-workers");
    }

    Result<std::unique_ptr<FleetDispatch>> created =
        FleetDispatch::create(spec);
    if (!created.ok())
        return created.status();
    FleetDispatch& dispatch = *created.value();

    // The service always drains on SIGTERM/SIGINT: in-flight units
    // are requeued, workers get shutdown lines, the partial result is
    // reported. (The in-process runner installs these only when
    // checkpointing; a fleet should never die mid-write.) A write to
    // a dead worker must fail, not kill the parent — and the forked
    // workers inherit the same disposition.
    ignoreSigpipe();
    installInterruptHandlers();

    const int unit_deadline_ms =
        spec.fleet_worker_timeout_s > 0
            ? static_cast<int>(spec.fleet_worker_timeout_s * 1000.0)
            : -1;
    const int heartbeat_ms = std::max(
        1, static_cast<int>(spec.fleet_heartbeat_timeout_s * 1000.0));

    // ---- Fork phase -------------------------------------------------
    // Plan building ran on one thread; the local workers must fork
    // before the progress reporter or any liaison thread exists, or a
    // child could inherit a lock some other thread holds. A child
    // inherits the plan, the codec backend, the chaos spec and the
    // trace origin with the rest of the address space, and closes the
    // pipe ends of the siblings forked before it.
    std::vector<std::unique_ptr<Host>> hosts;
    std::vector<int> inherited_fds;
    const int local_count = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(spec.fleet_workers),
        dispatch.initialPendingUnits()));
    const int beat_ms = std::max(1, heartbeat_ms / 4);
    const CampaignPlan& plan = dispatch.plan();
    for (int w = 0; w < local_count; ++w) {
        const std::string label = "local-" + std::to_string(w);
        Result<ChildProcess> child = spawnChild(
            [&plan, w, beat_ms](int read_fd, int write_fd) {
                return fleetWorkerMain(plan, w, read_fd, write_fd,
                                       beat_ms);
            },
            inherited_fds);
        if (!child.ok()) {
            warn("fleet: cannot fork worker " + std::to_string(w) +
                 ": " + child.status().toString());
            dispatch.registerHost(w, label);
            dispatch.closeHost(w, 0, true);
            continue;
        }
        auto host = std::make_unique<Host>();
        Host& H = *host;
        hosts.push_back(std::move(host));
        H.worker = w;
        H.pid = child.value().pid;
        H.read_fd = child.value().from_child;
        H.write_fd = child.value().to_child;
        H.reader = std::make_unique<LineReader>(H.read_fd);
        inherited_fds.push_back(H.read_fd);
        inherited_fds.push_back(H.write_fd);
        dispatch.registerHost(w, label, H.pid);
    }

    // Threads are safe from here on.
    dispatch.start();

    // Each worker's first unit is claimed here, in fork order, before
    // any liaison runs: every forked worker starts a unit however the
    // scheduler orders the liaison threads.
    for (auto& host : hosts) {
        std::uint64_t u = 0;
        if (dispatch.waitClaim(u, Clock::duration::zero()))
            host->first_unit = u;
    }

    // One liaison thread per worker: claim a unit, round-trip it,
    // settle it. Heartbeats refresh a liveness deadline, silence
    // retires the worker, results for units settled elsewhere are
    // discarded as duplicates.
    const auto runLiaison = [&](Host& H) {
        auto last_heard = Clock::now();

        // Retire the worker, first requeueing its in-flight unit with
        // the specific reason.
        const auto lose = [&](const std::uint64_t* in_flight,
                              const std::string& why) {
            if (in_flight != nullptr)
                dispatch.requeueUnit(*in_flight, why);
            warn("fleet: losing local worker " +
                 std::to_string(H.worker) + ": " + why);
            dispatch.closeHost(H.worker, H.close(true), true);
            dispatch.noteWorkerLost();
        };
        const auto hangUp = [&] {
            // Best-effort: a worker that is already gone just fails
            // the write, and its EOF ends the drain below at once.
            (void)writeAllFd(H.write_fd, encodeShutdownLine(), 1000);
            // Read until the worker closes its end. Its unit in
            // flight, if any, was requeued, so what it still sends is
            // discarded; a worker silent past the heartbeat budget
            // hangs, and is killed rather than waited on.
            for (;;) {
                Result<std::string> line = H.reader->readLine(kPollMs);
                if (line.ok()) {
                    last_heard = Clock::now();
                    continue;
                }
                if (line.status().code() == ErrorCode::notFound)
                    break;
                if (!isDeadlineExpired(line.status())) {
                    lose(nullptr, line.status().toString());
                    return;
                }
                if (elapsedMs(last_heard) >= heartbeat_ms) {
                    dispatch.noteHeartbeatExpiry();
                    lose(nullptr, "heartbeats stopped after shutdown");
                    return;
                }
            }
            dispatch.closeHost(H.worker, H.close(false), false);
        };

        // Read one worker line within @p slice_ms. Heartbeats and
        // telemetry are absorbed here; silence past the heartbeat
        // budget, a broken stream or garbage on it retires the worker.
        enum class Got
        {
            message,  //!< a settlement line, in msg
            absorbed, //!< a heartbeat or telemetry line
            quiet,    //!< nothing within the slice; worker alive
            lost,     //!< worker retired
        };
        const auto read = [&](int slice_ms,
                              const std::uint64_t* in_flight,
                              WorkerMessage& msg) {
            Result<std::string> line = H.reader->readLine(slice_ms);
            if (!line.ok()) {
                if (!isDeadlineExpired(line.status())) {
                    lose(in_flight, line.status().toString());
                    return Got::lost;
                }
                if (elapsedMs(last_heard) < heartbeat_ms)
                    return Got::quiet;
                dispatch.noteHeartbeatExpiry();
                lose(in_flight, "heartbeats stopped");
                return Got::lost;
            }
            last_heard = Clock::now();
            Result<WorkerMessage> decoded =
                decodeWorkerLine(line.value());
            if (!decoded.ok()) {
                lose(in_flight, decoded.status().toString());
                return Got::lost;
            }
            msg = std::move(decoded).value();
            // The pipe, not the worker, names the host a line is
            // credited to.
            msg.worker = H.worker;
            if (msg.kind == WorkerMessage::Kind::heartbeat)
                return Got::absorbed;
            if (msg.kind == WorkerMessage::Kind::telemetry) {
                // Telemetry ships ahead of the settlement it
                // accompanies.
                dispatch.absorbTelemetry(msg);
                return Got::absorbed;
            }
            return Got::message;
        };

        for (;;) {
            std::uint64_t u = 0;
            if (H.first_unit) {
                // Sent even after an interrupt: the settlement loop
                // below requeues it like any unit in flight.
                u = *H.first_unit;
                H.first_unit.reset();
            } else if (interruptRequested() || dispatch.allSettled()) {
                hangUp();
                return;
            } else if (!dispatch.waitClaim(
                           u, std::chrono::milliseconds(kPollMs))) {
                // Nothing to hand out (the last units are in flight
                // elsewhere): drain what the worker sent meanwhile and
                // watch its liveness. Settlement lines without a unit
                // in flight are stray and ignored.
                WorkerMessage stray;
                Got got = Got::absorbed;
                while (got == Got::absorbed || got == Got::message)
                    got = read(0, nullptr, stray);
                if (got == Got::lost)
                    return;
                continue;
            }

            const WorkUnit& unit = dispatch.unit(u);
            const auto dispatch_at = Clock::now();
            if (Status sent = writeAllFd(
                    H.write_fd, encodeUnitLine(unit), heartbeat_ms);
                !sent.ok()) {
                lose(&u, sent.toString());
                return;
            }

            for (;;) { // await this unit's settlement
                if (interruptRequested()) {
                    dispatch.requeueUnit(
                        u, "graceful drain with the unit in flight");
                    hangUp();
                    return;
                }
                if (unit_deadline_ms > 0 &&
                    elapsedMs(dispatch_at) >= unit_deadline_ms) {
                    dispatch.noteWorkerTimeout();
                    lose(&u, "unit " + std::to_string(u) +
                                 " exceeded its round-trip deadline");
                    return;
                }
                int slice = kPollMs;
                if (unit_deadline_ms > 0) {
                    slice = std::min(
                        slice, std::max(1, unit_deadline_ms -
                                               elapsedMs(dispatch_at)));
                }
                WorkerMessage msg;
                const Got got = read(slice, &u, msg);
                if (got == Got::lost)
                    return;
                if (got != Got::message)
                    continue;
                if (msg.kind == WorkerMessage::Kind::worker_error) {
                    lose(&u, msg.message);
                    return;
                }
                if (msg.kind == WorkerMessage::Kind::unit_error) {
                    // The cell failed persistently inside the worker —
                    // graceful degradation, the scheme is dropped.
                    if (Status valid = dispatch.validateUnitError(msg, u);
                        !valid.ok()) {
                        lose(&u, valid.toString());
                        return;
                    }
                    dispatch.failUnit(u, msg.message);
                    break;
                }
                // A result line. It may name a unit other than the
                // one in flight — a late delivery for a unit that
                // settled elsewhere. completeUnit discards those
                // idempotently (fleet.duplicate_results).
                if (Status valid = dispatch.validateResult(msg);
                    !valid.ok()) {
                    lose(&u, valid.toString());
                    return;
                }
                dispatch.completeUnit(msg, dispatch_at, Clock::now());
                if (msg.unit == u)
                    break;
            }
        }
    };
    for (auto& host : hosts) {
        Host& H = *host;
        H.thread = std::thread([&runLiaison, &H] { runLiaison(H); });
    }

    // ---- Drain ------------------------------------------------------
    // Liaisons end on their own: when the campaign settles, on an
    // interrupt (requeueing their unit), or with their worker lost.
    for (auto& host : hosts)
        host->thread.join();

    // Last rung: whatever is still pending runs right here. A no-op
    // when the campaign settled or an interrupt asked us to stop.
    dispatch.finishInProcess();
    return dispatch.finalize();
}

} // namespace gpuecc::sim::fleet
