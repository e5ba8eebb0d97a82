#include "net/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/subprocess.hpp"
#include "fleet/dispatch.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"
#include "net/auth.hpp"
#include "net/obs_http.hpp"
#include "net/wire.hpp"
#include "obs/exposition.hpp"
#include "sim/report.hpp"

namespace gpuecc::net {

namespace fleet = sim::fleet;

namespace {

using Clock = std::chrono::steady_clock;

/** Budget for each handshake step (a connect is cheap to retry). */
constexpr int kHandshakeMs = 5000;

/**
 * Poll slice: how often the accept loop wakes, and how long a liaison
 * waits for its host's next line or for a unit to claim (a requeue or
 * the last settlement wakes it at once).
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
 * One host and its liaison state: a forked local worker on a pipe
 * pair, or an authenticated agent on a TCP connection (one fd both
 * ways).
 */
struct Host
{
    int read_fd = -1;
    int write_fd = -1;
    std::int64_t pid = -1; //!< local workers only
    std::unique_ptr<LineReader> reader;
    obs::FleetWorkerRecord record;
    std::thread thread;

    /** One line to the host: agents take the chaos-aware wire path,
        local pipes a plain write. */
    Status send(const std::string& line, int deadline_ms)
    {
        return record.remote ? sendWireLine(write_fd, line, deadline_ms)
                             : writeAllFd(write_fd, line, deadline_ms);
    }

    /** Close the connection and reap a local worker (killing it
        first when it is being retired). */
    void close(bool kill)
    {
        if (write_fd != read_fd)
            closeFd(write_fd);
        write_fd = -1;
        closeFd(read_fd);
        if (pid < 0)
            return;
        if (kill)
            killChild(pid);
        Result<int> exit = waitForExit(pid);
        record.exit_code = exit.ok() ? exit.value() : -1;
        pid = -1;
    }
};

/** The /status document: one DispatchStatus snapshot as JSON. */
std::string
renderStatusJson(const fleet::DispatchStatus& s)
{
    sim::JsonWriter w;
    w.beginObject();
    w.key("units").beginObject();
    w.kv("total", s.units_total);
    w.kv("settled", s.units_settled);
    w.kv("resumed", s.units_resumed);
    w.kv("in_flight", s.units_in_flight);
    w.kv("queue_depth", s.queue_depth);
    w.endObject();
    w.key("shards").beginObject();
    w.kv("total", s.shards_total);
    w.kv("done", s.shards_done);
    w.endObject();
    w.kv("trials_done", s.trials_done);
    w.key("fleet").beginObject();
    w.kv("requeues", s.fleet.requeues);
    w.kv("units_poisoned", s.fleet.units_poisoned);
    w.kv("duplicate_results", s.fleet.duplicate_results);
    w.kv("workers_lost", s.fleet.workers_lost);
    w.kv("worker_timeouts", s.fleet.worker_timeouts);
    w.kv("heartbeat_expiries", s.fleet.heartbeat_expiries);
    w.kv("agents_connected", s.fleet.agents_connected);
    w.kv("auth_failures", s.fleet.auth_failures);
    w.endObject();
    w.kv("elapsed_seconds", s.elapsed_seconds);
    w.kv("units_per_second", s.units_per_second);
    w.kv("eta_seconds", s.eta_seconds);
    w.key("hosts").beginArray();
    for (const fleet::HostStatus& h : s.hosts) {
        w.beginObject();
        w.kv("worker", static_cast<std::uint64_t>(
                           h.worker < 0 ? 0 : h.worker));
        w.kv("label", h.label);
        w.kv("remote", h.remote);
        w.kv("units", h.units);
        w.kv("shards", h.shards);
        w.kv("trials", h.trials);
        w.kv("busy_seconds", static_cast<double>(h.busy_us) * 1e-6);
        w.kv("units_per_second",
             s.elapsed_seconds > 0.0
                 ? static_cast<double>(h.units) / s.elapsed_seconds
                 : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

/** The /metrics document: the same snapshot as Prometheus text. */
std::string
renderMetricsText(const fleet::DispatchStatus& s)
{
    std::vector<obs::PromSample> samples = {
        {"fleet.units_total", s.units_total},
        {"fleet.units_settled", s.units_settled},
        {"fleet.units_in_flight", s.units_in_flight},
        {"fleet.shards_total", s.shards_total},
        {"fleet.shards_done", s.shards_done},
        {"fleet.trials_done", s.trials_done},
        {"fleet.units_requeued", s.fleet.requeues},
        {"fleet.units_poisoned", s.fleet.units_poisoned},
        {"fleet.duplicate_results", s.fleet.duplicate_results},
        {"fleet.workers_lost", s.fleet.workers_lost},
        {"fleet.worker_timeouts", s.fleet.worker_timeouts},
        {"fleet.heartbeat_expiries", s.fleet.heartbeat_expiries},
        {"fleet.agents_connected", s.fleet.agents_connected},
        {"fleet.auth_failures", s.fleet.auth_failures},
    };
    // Slots merge by label so a reconnecting agent reports one series
    // per metric, same as the finalize-time merge.
    std::vector<std::pair<std::string, fleet::HostStatus>> merged;
    for (const fleet::HostStatus& h : s.hosts) {
        auto it = std::find_if(
            merged.begin(), merged.end(),
            [&](const auto& m) { return m.first == h.label; });
        if (it == merged.end()) {
            merged.emplace_back(h.label, h);
            continue;
        }
        it->second.units += h.units;
        it->second.shards += h.shards;
        it->second.trials += h.trials;
    }
    for (const auto& [label, h] : merged) {
        const std::string prefix = "fleet.host." + label + ".";
        samples.push_back({prefix + "units", h.units});
        samples.push_back({prefix + "shards", h.shards});
        samples.push_back({prefix + "trials", h.trials});
    }
    return obs::renderPrometheusText(samples);
}

} // namespace

Result<std::unique_ptr<FleetService>>
FleetService::create(const sim::CampaignSpec& spec)
{
    if (!subprocessSupported()) {
        return Status::unavailable(
            "fleet mode needs fork/pipe, which this platform lacks; "
            "run without --fleet-workers and --fleet-listen");
    }
    auto service = std::unique_ptr<FleetService>(new FleetService());
    service->spec_ = spec;
    if (!spec.fleet_listen.empty()) {
        if (!socketsSupported()) {
            return Status::unavailable(
                "the fleet service needs sockets, which this platform "
                "lacks; run without --fleet-listen");
        }
        Result<SocketAddress> address =
            parseSocketAddress(spec.fleet_listen);
        if (!address.ok())
            return address.status();
        Result<TcpListener> listener =
            TcpListener::listen(address.value());
        if (!listener.ok())
            return listener.status();
        service->listener_ = std::move(listener.value());
    }
    // The observability endpoint binds here too, so callers can learn
    // obsPort() before run() — and so its fd exists before the local
    // workers fork and can go on their close list.
    if (!spec.obs_listen.empty()) {
        Result<SocketAddress> obs_address =
            parseSocketAddress(spec.obs_listen);
        if (!obs_address.ok())
            return obs_address.status();
        Result<std::unique_ptr<ObsHttpServer>> obs =
            ObsHttpServer::create(obs_address.value());
        if (!obs.ok())
            return obs.status();
        service->obs_server_ = std::move(obs).value();
        inform("fleet: observability endpoint on port " +
               std::to_string(service->obs_server_->port()) +
               " (/metrics, /status)");
    }
    return service;
}

FleetService::~FleetService() = default;

int
FleetService::obsPort() const
{
    return obs_server_ != nullptr ? obs_server_->port() : -1;
}

Result<sim::CampaignResult>
FleetService::run()
{
    require(!ran_, "fleet service: run() called twice");
    ran_ = true;

    Result<std::unique_ptr<fleet::FleetDispatch>> created =
        fleet::FleetDispatch::create(spec_);
    if (!created.ok())
        return created.status();
    fleet::FleetDispatch& dispatch = *created.value();

    // The service always drains on SIGTERM/SIGINT: in-flight units
    // are requeued, hosts get shutdown lines, the partial result is
    // reported. (The in-process runner installs these only when
    // checkpointing; a fleet should never die mid-write.) A write to
    // a dead host must fail, not kill the parent — and the forked
    // workers inherit the same disposition.
    ignoreSigpipe();
    installInterruptHandlers();

    const int unit_deadline_ms =
        spec_.fleet_worker_timeout_s > 0
            ? static_cast<int>(spec_.fleet_worker_timeout_s * 1000.0)
            : -1;
    const int heartbeat_ms = std::max(
        1, static_cast<int>(spec_.fleet_heartbeat_timeout_s * 1000.0));
    const int grace_ms = std::max(
        0, static_cast<int>(spec_.fleet_grace_s * 1000.0));

    // ---- Fork phase -------------------------------------------------
    // Plan building ran on one thread; the local workers must fork
    // before the progress reporter or any liaison thread exists, or a
    // child could inherit a lock some other thread holds. The
    // listening sockets must not leak into them.
    std::vector<std::unique_ptr<Host>> hosts;
    std::vector<int> inherited_fds;
    if (listener_.fd() >= 0)
        inherited_fds.push_back(listener_.fd());
    if (obs_server_)
        inherited_fds.push_back(obs_server_->fd());
    const int local_count = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(spec_.fleet_workers),
        dispatch.initialPendingUnits()));
    const int beat_ms = std::max(1, heartbeat_ms / 4);
    for (int w = 0; w < local_count; ++w) {
        auto host = std::make_unique<Host>();
        Host& H = *host;
        hosts.push_back(std::move(host));
        H.record.worker = w;
        Result<ChildProcess> child = spawnChild(
            [beat_ms](int read_fd, int write_fd) {
                return fleet::fleetWorkerMain(read_fd, write_fd,
                                              beat_ms);
            },
            inherited_fds);
        if (!child.ok()) {
            warn("fleet: cannot fork worker " + std::to_string(w) +
                 ": " + child.status().toString());
            H.record.lost = true;
            continue;
        }
        H.pid = H.record.pid = child.value().pid;
        H.read_fd = child.value().from_child;
        H.write_fd = child.value().to_child;
        H.reader = std::make_unique<LineReader>(
            H.read_fd, fleet::kMaxWireLineBytes);
        inherited_fds.push_back(H.read_fd);
        inherited_fds.push_back(H.write_fd);
        dispatch.registerHost(w, "local-" + std::to_string(w), false);
        if (Status s = H.send(fleet::encodeConfigLine(
                                  dispatch.configFor(w)),
                              -1);
            !s.ok()) {
            warn("fleet: worker " + std::to_string(w) +
                 " rejected its config: " + s.toString());
            H.record.lost = true;
            H.close(true);
        }
    }

    // Threads are safe from here on.
    dispatch.start();
    if (obs_server_) {
        obs_server_->serve([&dispatch](const std::string& path) {
            ObsResponse out;
            if (path == "/metrics") {
                out.found = true;
                out.content_type = "text/plain; version=0.0.4";
                out.body = renderMetricsText(dispatch.status());
            } else if (path == "/status") {
                out.found = true;
                out.content_type = "application/json";
                out.body = renderStatusJson(dispatch.status());
            }
            return out;
        });
    }

    std::atomic<int> live{0};

    // One liaison thread per host, local or remote: claim a unit,
    // round-trip it, settle it. Heartbeats refresh a liveness
    // deadline, silence retires the host, results for units settled
    // elsewhere are discarded as duplicates.
    const auto runLiaison = [&](Host& H) {
        auto last_heard = Clock::now();

        // Retire the host, first requeueing its in-flight unit with
        // the specific reason.
        const auto lose = [&](const std::uint64_t* in_flight,
                              const std::string& why) {
            if (in_flight != nullptr)
                dispatch.requeueUnit(*in_flight, why);
            warn("fleet: losing " +
                 (H.record.remote ? "agent '" + H.record.agent + "'"
                                  : std::string("local worker")) +
                 " (worker " + std::to_string(H.record.worker) +
                 "): " + why);
            H.record.lost = true;
            H.close(true);
            dispatch.noteWorkerLost();
        };
        const auto hangUp = [&] {
            // Best-effort: a host that is already gone just fails the
            // write, which is fine — we are hanging up either way.
            (void)H.send(fleet::encodeShutdownLine(), 1000);
            H.close(false);
        };

        // Read one host line within @p slice_ms. Heartbeats and
        // telemetry are absorbed here; silence past the heartbeat
        // budget, a broken stream or garbage on it retires the host.
        enum class Got
        {
            message,  //!< a settlement line, in msg
            absorbed, //!< a heartbeat or telemetry line
            quiet,    //!< nothing within the slice; host alive
            lost,     //!< host retired
        };
        const auto read = [&](int slice_ms,
                              const std::uint64_t* in_flight,
                              fleet::WorkerMessage& msg) {
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
            Result<fleet::WorkerMessage> decoded =
                fleet::decodeWorkerLine(line.value());
            if (!decoded.ok()) {
                lose(in_flight, decoded.status().toString());
                return Got::lost;
            }
            msg = std::move(decoded).value();
            if (msg.kind == fleet::WorkerMessage::Kind::heartbeat ||
                msg.kind == fleet::WorkerMessage::Kind::telemetry) {
                // Telemetry ships ahead of the settlement it
                // accompanies; both carry a clock sample.
                dispatch.absorbTelemetry(msg);
                return Got::absorbed;
            }
            return Got::message;
        };

        for (;;) {
            if (interruptRequested() || dispatch.allSettled()) {
                hangUp();
                return;
            }
            std::uint64_t u = 0;
            if (!dispatch.waitClaim(u,
                                    std::chrono::milliseconds(kPollMs))) {
                // Nothing to hand out (the last units are in flight
                // elsewhere): drain what the host sent meanwhile and
                // watch its liveness. Settlement lines without a unit
                // in flight are stray and ignored.
                fleet::WorkerMessage stray;
                Got got = Got::absorbed;
                while (got == Got::absorbed || got == Got::message)
                    got = read(0, nullptr, stray);
                if (got == Got::lost)
                    return;
                continue;
            }

            const fleet::WorkUnit& unit = dispatch.unit(u);
            dispatch.noteUnitDispatched(u, H.record.worker);
            const auto dispatch_at = Clock::now();
            if (Status sent =
                    H.send(fleet::encodeUnitLine(unit), heartbeat_ms);
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
                fleet::WorkerMessage msg;
                const Got got = read(slice, &u, msg);
                if (got == Got::lost)
                    return;
                if (got != Got::message)
                    continue;
                if (msg.kind ==
                    fleet::WorkerMessage::Kind::worker_error) {
                    lose(&u, msg.message);
                    return;
                }
                if (msg.kind == fleet::WorkerMessage::Kind::unit_error) {
                    // The cell failed persistently inside the host —
                    // graceful degradation, the scheme is dropped. A
                    // unit_error is only ever about the unit in
                    // flight: any other index is a broken peer.
                    if (msg.unit != u) {
                        lose(&u, "unit_error names unit " +
                                     std::to_string(msg.unit) +
                                     ", not the unit in flight");
                        return;
                    }
                    dispatch.failUnit(u, msg.message);
                    break;
                }
                // A result line. It may name a unit other than the
                // one in flight — a replayed or duplicated delivery
                // for a unit that settled elsewhere. completeUnit
                // discards those idempotently (fleet.duplicate_results).
                if (Status valid = dispatch.validateResult(msg);
                    !valid.ok()) {
                    lose(&u, valid.toString());
                    return;
                }
                if (dispatch.completeUnit(msg, dispatch_at, Clock::now()) &&
                    msg.unit == u) {
                    H.record.units += 1;
                    H.record.shards += unit.task_count;
                    for (const sim::CheckpointEntry& e :
                         msg.checkpoint.done)
                        H.record.trials += e.counts.trials;
                    H.record.busy_seconds +=
                        static_cast<double>(msg.busy_us) * 1e-6;
                }
                if (msg.unit == u)
                    break;
            }
        }
    };
    const auto startLiaison = [&](Host& H) {
        live.fetch_add(1);
        H.thread = std::thread([&runLiaison, &live, &H] {
            runLiaison(H);
            live.fetch_sub(1);
        });
    };
    for (auto& host : hosts) {
        if (!host->record.lost)
            startLiaison(*host);
    }

    // Challenge-response handshake on a fresh connection; fills the
    // host's record (worker index, agent name) and primes its reader.
    const auto handshake = [&](int fd, Host& H) -> Status {
        H.read_fd = H.write_fd = fd;
        H.record.remote = true;
        H.reader = std::make_unique<LineReader>(
            fd, fleet::kMaxWireLineBytes);
        const std::string nonce = makeNonceHex();
        if (Status s = H.send(fleet::encodeChallengeLine(nonce),
                              kHandshakeMs);
            !s.ok())
            return s;
        Result<std::string> line = H.reader->readLine(kHandshakeMs);
        if (!line.ok())
            return line.status();
        Result<fleet::AuthRequest> auth =
            fleet::decodeAuthLine(line.value());
        if (!auth.ok())
            return auth.status();
        if (!constantTimeEquals(
                auth.value().mac,
                agentMac(spec_.fleet_secret, nonce,
                         auth.value().agent))) {
            (void)H.send(
                fleet::encodeAuthErrorLine("authentication failed"),
                1000);
            return Status::failedPrecondition(
                "agent '" + auth.value().agent +
                "' failed authentication");
        }
        H.record.agent = auth.value().agent;
        if (Status s = H.send(
                fleet::encodeWelcomeLine(
                    H.record.worker,
                    serverMac(spec_.fleet_secret, nonce)),
                kHandshakeMs);
            !s.ok())
            return s;
        if (Status s = H.send(fleet::encodeConfigLine(
                                  dispatch.configFor(H.record.worker)),
                              kHandshakeMs);
            !s.ok())
            return s;
        // Registration is the clock-rebasing reference: the host's
        // telemetry timestamps count from its config receipt, which
        // happened within one network hop of right now.
        dispatch.registerHost(H.record.worker, H.record.agent, true);
        return Status{};
    };

    // ---- Accept loop ------------------------------------------------
    // Degradation ladder: with no live host for the grace window, the
    // remaining units finish in-process below.
    int agent_seq = 0;
    auto last_live = Clock::now();
    while (listener_.fd() >= 0 && !interruptRequested() &&
           !dispatch.allSettled()) {
        if (live.load() > 0) {
            last_live = Clock::now();
        } else if (elapsedMs(last_live) >= grace_ms) {
            warn("fleet: no live host for " +
                 std::to_string(grace_ms / 1000) +
                 "s; finishing the remaining units in-process");
            break;
        }
        Result<int> accepted = listener_.accept(kPollMs);
        if (!accepted.ok()) {
            if (isDeadlineExpired(accepted.status()))
                continue;
            warn("fleet: accept failed: " +
                 accepted.status().toString() +
                 "; serving the connected hosts only");
            break;
        }
        auto host = std::make_unique<Host>();
        host->record.worker = spec_.fleet_workers + agent_seq;
        if (Status s = handshake(accepted.value(), *host); !s.ok()) {
            if (s.code() == ErrorCode::failedPrecondition)
                dispatch.noteAuthFailure();
            warn("fleet: rejecting connection: " + s.toString());
            host->close(false);
            continue;
        }
        ++agent_seq;
        startLiaison(*host);
        hosts.push_back(std::move(host));
    }

    // ---- Drain ------------------------------------------------------
    // Liaisons end on their own: when the campaign settles, on an
    // interrupt (requeueing their unit), or with their host lost.
    listener_.close();
    for (auto& host : hosts) {
        if (host->thread.joinable())
            host->thread.join();
    }

    // Last rung: whatever is still pending runs right here. A no-op
    // when the campaign settled or an interrupt asked us to stop.
    dispatch.finishInProcess();

    // The endpoint outlives the liaisons (a curl mid-drain is fine)
    // but not finalize, which consumes the dispatcher.
    if (obs_server_)
        obs_server_->stop();

    std::vector<obs::FleetWorkerRecord> records;
    for (const auto& host : hosts)
        records.push_back(host->record);
    return dispatch.finalize(std::move(records));
}

Result<sim::CampaignResult>
runFleetService(const sim::CampaignSpec& spec)
{
    Result<std::unique_ptr<FleetService>> service =
        FleetService::create(spec);
    if (!service.ok())
        return service.status();
    return service.value()->run();
}

} // namespace gpuecc::net
