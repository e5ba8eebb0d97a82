/**
 * @file
 * fleet_agent: remote worker for a --fleet-listen campaign service.
 *
 * Start one per host (or several per host — each is a
 * single-threaded worker process) and point them at a running
 * service:
 *
 *   conf_micro --fleet-listen '*:7077' --fleet-secret s3cret ...
 *   fleet_agent --connect lab-server:7077 --secret s3cret
 *
 * The agent authenticates with an HMAC challenge-response (mutually —
 * it refuses a listener that cannot prove it holds the secret too),
 * rebuilds the campaign plan from the config line, refuses a plan
 * whose fingerprint doesn't match, then evaluates work units with
 * heartbeats until the service drains it. Connection loss triggers
 * exponential-backoff reconnects; a wrong secret exits immediately
 * (code 2). SIGTERM/SIGINT stop the agent cleanly between rounds.
 */

#include <string>

#include "common/cli.hpp"
#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "net/agent.hpp"
#include "net/socket.hpp"

using namespace gpuecc;

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("connect", "127.0.0.1:7077",
                "host:port of the fleet campaign service");
    cli.addFlag("secret", "",
                "shared secret (falls back to $GPUECC_FLEET_SECRET; "
                "must match the service's --fleet-secret)");
    cli.addFlag("name", "",
                "agent name reported in the service's worker records "
                "(default: agent-<pid>)");
    cli.addFlag("heartbeat-interval", "2",
                "seconds between heartbeats while evaluating (keep "
                "well under the service's --fleet-heartbeat-timeout)");
    cli.addFlag("io-timeout", "30",
                "seconds of wire silence before the service is "
                "presumed dead and the agent reconnects");
    cli.addFlag("backoff-initial", "0.5",
                "first reconnect delay in seconds (doubles per "
                "failure up to --backoff-max; resets after each "
                "successful handshake)");
    cli.addFlag("backoff-max", "30", "reconnect delay ceiling");
    cli.addFlag("max-reconnects", "10",
                "consecutive failed connect/serve rounds before "
                "giving up (-1 = retry forever)");
    cli.parse(argc, argv,
              "Remote worker agent for a gpuecc fleet campaign "
              "service (--fleet-listen).");

    Result<net::SocketAddress> address =
        net::parseSocketAddress(cli.getString("connect"));
    if (!address.ok())
        fatal("--connect: " + address.status().toString());

    net::FleetAgentOptions options;
    options.host = address.value().host;
    options.port = address.value().port;
    options.secret = cli.getString("secret");
    if (options.secret.empty()) {
        if (const char* env = std::getenv("GPUECC_FLEET_SECRET"))
            options.secret = env;
    }
    options.name = cli.getString("name");
    options.heartbeat_interval_s =
        cli.getDuration("heartbeat-interval", true);
    options.io_timeout_s = cli.getDuration("io-timeout", true);
    options.backoff_initial_s = cli.getDuration("backoff-initial", true);
    options.backoff_max_s = cli.getDuration("backoff-max", true);
    options.max_reconnects =
        static_cast<int>(cli.getInt("max-reconnects"));
    if (options.backoff_max_s < options.backoff_initial_s)
        fatal("--backoff-initial/--backoff-max must be ordered");

    installInterruptHandlers();
    return net::runFleetAgent(options);
}
