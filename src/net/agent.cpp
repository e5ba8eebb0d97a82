#include "net/agent.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/subprocess.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"
#include "net/auth.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace gpuecc::net {

namespace fleet = sim::fleet;

namespace {

/** Budget for each handshake step (mirrors the server's). */
constexpr int kHandshakeMs = 10000;

/** Sleep @p seconds in small slices, bailing on interrupt. */
void
interruptibleSleep(double seconds)
{
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds));
    while (!interruptRequested() &&
           std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

/** One connect + handshake + serve round. */
enum class RoundEnd
{
    drained,   //!< shutdown line or interrupt: exit 0
    reconnect, //!< transient loss: back off and try again
    auth,      //!< authentication failed (either direction): no retry
    setup,     //!< plan didn't validate locally: no retry
};

RoundEnd
serveOnce(const FleetAgentOptions& opts, const std::string& name,
          bool* handshook)
{
    Result<int> connected = connectTcp({opts.host, opts.port});
    if (!connected.ok()) {
        warn("agent: " + connected.status().toString());
        return RoundEnd::reconnect;
    }
    int fd = connected.value();
    LineReader reader(fd, fleet::kMaxWireLineBytes);

    // --- Handshake ---------------------------------------------------
    const auto fail = [&](const std::string& why, RoundEnd end) {
        warn("agent: " + why);
        closeFd(fd);
        return end;
    };
    Result<std::string> line = reader.readLine(kHandshakeMs);
    if (!line.ok())
        return fail("no challenge: " + line.status().toString(),
                    RoundEnd::reconnect);
    Result<std::string> nonce = fleet::decodeChallengeLine(line.value());
    if (!nonce.ok())
        return fail("bad challenge: " + nonce.status().toString(),
                    RoundEnd::reconnect);
    if (Status s = sendWireLine(
            fd,
            fleet::encodeAuthLine(
                name, agentMac(opts.secret, nonce.value(), name)),
            kHandshakeMs);
        !s.ok())
        return fail("cannot answer challenge: " + s.toString(),
                    RoundEnd::reconnect);
    line = reader.readLine(kHandshakeMs);
    if (!line.ok())
        return fail("no welcome: " + line.status().toString(),
                    RoundEnd::reconnect);
    Result<fleet::Welcome> welcome =
        fleet::decodeWelcomeLine(line.value());
    if (!welcome.ok()) {
        // An auth_error line decodes as failedPrecondition — the
        // secret is wrong, and retrying only hammers the server.
        if (welcome.status().code() == ErrorCode::failedPrecondition)
            return fail("rejected: " + welcome.status().toString(),
                        RoundEnd::auth);
        return fail("bad welcome: " + welcome.status().toString(),
                    RoundEnd::reconnect);
    }
    if (!constantTimeEquals(welcome.value().mac,
                            serverMac(opts.secret, nonce.value()))) {
        // Mutual auth: a listener that cannot prove it holds the
        // secret does not get to feed this agent a plan.
        return fail("server failed mutual authentication",
                    RoundEnd::auth);
    }
    line = reader.readLine(kHandshakeMs);
    if (!line.ok())
        return fail("no config: " + line.status().toString(),
                    RoundEnd::reconnect);
    Result<fleet::FleetConfig> config =
        fleet::decodeConfigLine(line.value());
    if (!config.ok())
        return fail("bad config: " + config.status().toString(),
                    RoundEnd::reconnect);
    *handshook = true;

    // --- Serve -------------------------------------------------------
    const int io_ms = std::max(
        1, static_cast<int>(opts.io_timeout_s * 1000.0));
    fleet::ServeOptions serve;
    serve.heartbeat_interval_ms = std::max(
        1, static_cast<int>(opts.heartbeat_interval_s * 1000.0));
    serve.read_deadline_ms = io_ms;
    const fleet::ServeEnd end = fleet::serveFleetUnits(
        config.value(), reader,
        [fd, io_ms](const std::string& out) {
            return sendWireLine(fd, out, io_ms);
        },
        serve);
    closeFd(fd);
    switch (end) {
      case fleet::ServeEnd::shutdown:
        return RoundEnd::drained;
      case fleet::ServeEnd::setup:
        return RoundEnd::setup;
      case fleet::ServeEnd::eof:
      case fleet::ServeEnd::silent:
      case fleet::ServeEnd::protocol:
        break;
    }
    warn("agent: lost the server (" +
         std::string(end == fleet::ServeEnd::silent
                         ? "wire went silent"
                         : "stream ended") +
         "); will reconnect");
    return RoundEnd::reconnect;
}

} // namespace

int
runFleetAgent(const FleetAgentOptions& opts)
{
    std::string name = opts.name;
    if (name.empty()) {
        long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
        pid = static_cast<long>(getpid());
#endif
        name = "agent-" + std::to_string(pid);
    }

    double backoff = opts.backoff_initial_s;
    int failures = 0;
    for (;;) {
        if (interruptRequested())
            return 0;
        bool handshook = false;
        const RoundEnd end = serveOnce(opts, name, &handshook);
        if (handshook) {
            // A full handshake proves the server is the real one and
            // was alive moments ago: restart the backoff schedule.
            backoff = opts.backoff_initial_s;
            failures = 0;
        }
        switch (end) {
          case RoundEnd::drained:
            return 0;
          case RoundEnd::auth:
            return kAgentAuthExit;
          case RoundEnd::setup:
            return fleet::kWorkerSetupExit;
          case RoundEnd::reconnect:
            break;
        }
        ++failures;
        if (opts.max_reconnects >= 0 &&
            failures > opts.max_reconnects) {
            warn("agent: giving up after " + std::to_string(failures) +
                 " failed rounds");
            return kAgentLostServerExit;
        }
        interruptibleSleep(backoff);
        backoff = std::min(backoff * 2.0, opts.backoff_max_s);
    }
}

} // namespace gpuecc::net
