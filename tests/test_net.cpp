/**
 * @file
 * Tests for the multi-host fleet service stack: socket address
 * parsing, HMAC handshake primitives, chaos-aware wire writes, and
 * full loopback campaigns served by forked agent processes — including
 * the failure drills (killed agent, silent agent, wrong secret,
 * garbled wire, graceful drain) that must all converge to tallies
 * bit-identical with an in-process run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/interrupt.hpp"
#include "common/subprocess.hpp"
#include "fleet/protocol.hpp"
#include "net/agent.hpp"
#include "net/auth.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "sim/campaign.hpp"
#include "sim/chaos.hpp"

namespace gpuecc {
namespace {

bool
netTestsSupported()
{
    return net::socketsSupported() && subprocessSupported();
}

std::string
toHexString(const std::array<std::uint8_t, 32>& digest)
{
    static const char* kDigits = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : digest) {
        out.push_back(kDigits[b >> 4]);
        out.push_back(kDigits[b & 0xF]);
    }
    return out;
}

// ---- Address parsing ---------------------------------------------------

TEST(SocketAddress, ParsesHostPortForms)
{
    auto a = net::parseSocketAddress("127.0.0.1:7077");
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value().host, "127.0.0.1");
    EXPECT_EQ(a.value().port, 7077);

    auto any = net::parseSocketAddress("*:7077");
    ASSERT_TRUE(any.ok());
    EXPECT_TRUE(any.value().host.empty());
    EXPECT_EQ(any.value().port, 7077);

    auto ephemeral = net::parseSocketAddress(":0");
    ASSERT_TRUE(ephemeral.ok());
    EXPECT_TRUE(ephemeral.value().host.empty());
    EXPECT_EQ(ephemeral.value().port, 0);
}

TEST(SocketAddress, RejectsMalformedText)
{
    EXPECT_FALSE(net::parseSocketAddress("").ok());
    EXPECT_FALSE(net::parseSocketAddress("noport").ok());
    EXPECT_FALSE(net::parseSocketAddress("host:").ok());
    EXPECT_FALSE(net::parseSocketAddress("host:abc").ok());
    EXPECT_FALSE(net::parseSocketAddress("host:-1").ok());
    EXPECT_FALSE(net::parseSocketAddress("host:65536").ok());
}

// ---- Authentication primitives -----------------------------------------

TEST(Auth, Sha256MatchesFips180KnownAnswers)
{
    EXPECT_EQ(toHexString(net::sha256("")),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(toHexString(net::sha256("abc")),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(toHexString(net::sha256(
                  "abcdbcdecdefdefgefghfghighijhijk"
                  "ijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Auth, HmacSha256MatchesRfc4231KnownAnswers)
{
    // RFC 4231 test case 1.
    EXPECT_EQ(net::hmacSha256Hex(std::string(20, '\x0b'), "Hi There"),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
    // RFC 4231 test case 2 (key shorter than the block size).
    EXPECT_EQ(net::hmacSha256Hex("Jefe",
                                 "what do ya want for nothing?"),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
    // RFC 4231 test case 6 (key longer than the block size).
    EXPECT_EQ(net::hmacSha256Hex(
                  std::string(131, '\xaa'),
                  "Test Using Larger Than Block-Size Key - "
                  "Hash Key First"),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Auth, ConstantTimeEqualsComparesContent)
{
    EXPECT_TRUE(net::constantTimeEquals("", ""));
    EXPECT_TRUE(net::constantTimeEquals("abcd", "abcd"));
    EXPECT_FALSE(net::constantTimeEquals("abcd", "abce"));
    EXPECT_FALSE(net::constantTimeEquals("abcd", "abc"));
    EXPECT_FALSE(net::constantTimeEquals("", "x"));
}

TEST(Auth, NonceIsFreshHex)
{
    const std::string a = net::makeNonceHex();
    const std::string b = net::makeNonceHex();
    EXPECT_EQ(a.size(), 64u); // 32 bytes, hex-encoded
    EXPECT_NE(a, b);
    for (char c : a) {
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << "non-hex nonce char " << c;
    }
}

TEST(Auth, MacsAreDomainAndInputSeparated)
{
    const std::string nonce = net::makeNonceHex();
    const std::string agent = net::agentMac("s3cret", nonce, "alpha");
    // Same secret and nonce, different role: never interchangeable.
    EXPECT_NE(agent, net::serverMac("s3cret", nonce));
    // Every input matters.
    EXPECT_NE(agent, net::agentMac("other", nonce, "alpha"));
    EXPECT_NE(agent, net::agentMac("s3cret", nonce, "beta"));
    EXPECT_NE(agent,
              net::agentMac("s3cret", net::makeNonceHex(), "alpha"));
    // And the proof is deterministic for the holder of the secret.
    EXPECT_EQ(agent, net::agentMac("s3cret", nonce, "alpha"));
}

// ---- Chaos-aware wire writes -------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

/** Send lines through a pipe under one chaos spec; return raw bytes. */
std::string
wireBytesUnderChaos(const sim::ChaosSpec& chaos,
                    const std::vector<std::string>& lines)
{
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    sim::setChaosSpec(chaos);
    for (const std::string& line : lines) {
        const Status sent = net::sendWireLine(fds[1], line, 1000);
        EXPECT_TRUE(sent.ok()) << sent.toString();
    }
    sim::clearChaosSpec();
    closeFd(fds[1]);
    std::string received;
    char buf[256];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n <= 0)
            break;
        received.append(buf, static_cast<std::size_t>(n));
    }
    closeFd(fds[0]);
    return received;
}

TEST(Wire, DropFaultSwallowsOneLineSilently)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    sim::ChaosSpec chaos;
    chaos.net_drop = 0;
    EXPECT_EQ(wireBytesUnderChaos(chaos, {"first\n", "second\n"}),
              "second\n");
}

TEST(Wire, DuplicateFaultSendsOneLineTwice)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    sim::ChaosSpec chaos;
    chaos.net_dup = 1;
    EXPECT_EQ(wireBytesUnderChaos(chaos, {"first\n", "second\n"}),
              "first\nsecond\nsecond\n");
}

TEST(Wire, TruncateFaultBreaksFramingMidLine)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    sim::ChaosSpec chaos;
    chaos.net_trunc = 0;
    // "abcdef" loses its second half and its terminator, so the next
    // line's bytes glue onto the stump — exactly the framing break a
    // mid-write peer death produces.
    EXPECT_EQ(wireBytesUnderChaos(chaos, {"abcdef\n", "tail\n"}),
              "abctail\n");
}

TEST(Wire, GarbleFaultCorruptsPayloadButKeepsFraming)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    sim::ChaosSpec chaos;
    chaos.net_garble = 0;
    const std::string got =
        wireBytesUnderChaos(chaos, {"payload\n", "clean\n"});
    ASSERT_EQ(got.size(), std::string("payload\nclean\n").size());
    EXPECT_EQ(got.substr(got.size() - 6), "clean\n");
    EXPECT_EQ(got[7], '\n'); // framing intact...
    EXPECT_NE(got.substr(0, 7), "payload"); // ...payload corrupted
}

TEST(Wire, OversizedLineIsDataLossAndPoisonsTheStream)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    int fds[2] = {-1, -1};
    ASSERT_EQ(::pipe(fds), 0);
    const std::string oversized(200, 'a');
    ASSERT_TRUE(writeAllFd(fds[1], oversized + "\nok\n").ok());
    closeFd(fds[1]);

    LineReader reader(fds[0], 64);
    const auto first = reader.readLine();
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), ErrorCode::dataLoss);
    // Framing is unrecoverable past an oversized line: the stream
    // stays poisoned even though a well-formed line follows.
    EXPECT_FALSE(reader.readLine().ok());
    closeFd(fds[0]);
}

#endif // __unix__ || __APPLE__

// ---- Protocol negative / fuzz coverage ---------------------------------

TEST(NetProtocol, ChaosSpecParsesNetworkAndFleetUnitKeys)
{
    const auto parsed = sim::parseChaosSpec(
        "net_drop=1,net_dup=2,net_trunc=3,net_garble=4,net_delay=5,"
        "net_delay_ms=7,fleet_exit_unit=9,fleet_exit_unit_count=-1,"
        "fleet_stall_unit=11,fleet_stall_worker=0,fleet_stall_after=2");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const sim::ChaosSpec& c = parsed.value();
    EXPECT_EQ(c.net_drop, 1);
    EXPECT_EQ(c.net_dup, 2);
    EXPECT_EQ(c.net_trunc, 3);
    EXPECT_EQ(c.net_garble, 4);
    EXPECT_EQ(c.net_delay, 5);
    EXPECT_EQ(c.net_delay_ms, 7);
    EXPECT_EQ(c.fleet_exit_unit, 9);
    EXPECT_EQ(c.fleet_exit_unit_count, -1);
    EXPECT_EQ(c.fleet_stall_unit, 11);
    EXPECT_EQ(c.fleet_stall_worker, 0);
    EXPECT_EQ(c.fleet_stall_after, 2);
}

TEST(NetProtocol, HandshakeLinesRoundTrip)
{
    const std::string nonce = net::makeNonceHex();
    const auto challenge = sim::fleet::decodeChallengeLine(
        sim::fleet::encodeChallengeLine(nonce));
    ASSERT_TRUE(challenge.ok());
    EXPECT_EQ(challenge.value(), nonce);

    const auto auth = sim::fleet::decodeAuthLine(
        sim::fleet::encodeAuthLine("alpha", "00ff"));
    ASSERT_TRUE(auth.ok());
    EXPECT_EQ(auth.value().agent, "alpha");
    EXPECT_EQ(auth.value().mac, "00ff");

    const auto welcome = sim::fleet::decodeWelcomeLine(
        sim::fleet::encodeWelcomeLine(7, "ab12"));
    ASSERT_TRUE(welcome.ok());
    EXPECT_EQ(welcome.value().worker, 7);
    EXPECT_EQ(welcome.value().mac, "ab12");
}

TEST(NetProtocol, AuthErrorLineIsTerminalForTheAgent)
{
    const auto rejected = sim::fleet::decodeWelcomeLine(
        sim::fleet::encodeAuthErrorLine("authentication failed"));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(),
              ErrorCode::failedPrecondition);
}

TEST(NetProtocol, TruncatedLinesNeverDecode)
{
    sim::fleet::WorkerMessage msg;
    msg.kind = sim::fleet::WorkerMessage::Kind::result;
    msg.unit = 3;
    msg.worker = 1;
    sim::CheckpointEntry entry;
    entry.task = 12;
    entry.counts.trials = 100;
    msg.checkpoint.done.push_back(entry);
    const std::string line = sim::fleet::encodeResultLine(msg);
    // Every cut that loses payload bytes (not just the newline) must
    // decode to a structured error, not a crash or a partial message.
    for (std::size_t cut = 0; cut + 1 < line.size(); ++cut) {
        EXPECT_FALSE(
            sim::fleet::decodeWorkerLine(line.substr(0, cut)).ok())
            << "cut at " << cut;
    }
}

TEST(NetProtocol, DecodersSurviveDeterministicGarbage)
{
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    const auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int round = 0; round < 500; ++round) {
        std::string line;
        const std::size_t len = next() % 120;
        for (std::size_t i = 0; i < len; ++i)
            line.push_back(static_cast<char>(next() & 0xFF));
        // None of these may crash; structured failure (or, for pure
        // luck, success) are both acceptable outcomes.
        (void)sim::fleet::decodeConfigLine(line);
        (void)sim::fleet::decodeWorkerLine(line);
        (void)sim::fleet::decodeServerLine(line);
        (void)sim::fleet::decodeChallengeLine(line);
        (void)sim::fleet::decodeAuthLine(line);
        (void)sim::fleet::decodeWelcomeLine(line);
    }
}

// ---- Loopback service campaigns ----------------------------------------

sim::CampaignSpec
smallSpec()
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"ni-secded", "duet"};
    spec.patterns = {ErrorPattern::oneBit, ErrorPattern::oneBeat};
    spec.samples = 20000;
    spec.seed = 0xF1EE7;
    spec.threads = 1;
    return spec;
}

sim::CampaignSpec
serviceSpec(double heartbeat_timeout_s = 10.0)
{
    sim::CampaignSpec spec = smallSpec();
    spec.fleet_listen = "127.0.0.1:0"; // ephemeral port
    spec.fleet_secret = "test-secret";
    spec.fleet_heartbeat_timeout_s = heartbeat_timeout_s;
    spec.fleet_grace_s = 60.0; // agents always arrive well within this
    return spec;
}

void
expectCellsIdentical(const sim::CampaignResult& a,
                     const sim::CampaignResult& b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].scheme_id, b.cells[i].scheme_id);
        EXPECT_EQ(a.cells[i].pattern, b.cells[i].pattern);
        const OutcomeCounts& x = a.cells[i].counts;
        const OutcomeCounts& y = b.cells[i].counts;
        EXPECT_EQ(x.trials, y.trials) << "cell " << i;
        EXPECT_EQ(x.dce, y.dce) << "cell " << i;
        EXPECT_EQ(x.due, y.due) << "cell " << i;
        EXPECT_EQ(x.sdc, y.sdc) << "cell " << i;
    }
}

/**
 * Every view of the fleet ledger agrees: the worker records, plus the
 * in-process fallback's series when it ran, sum to the host-labelled
 * series, which sum to the fleet's completion counters and the
 * merged tallies.
 */
void
expectLedgerViewsAgree(const sim::CampaignResult& r)
{
    const auto counter = [&](const std::string& name) {
        const obs::CounterValue* c = r.metrics.findCounter(name);
        return c != nullptr ? c->value : std::uint64_t{0};
    };
    std::uint64_t units = 0;
    std::uint64_t shards = 0;
    std::uint64_t trials = 0;
    std::vector<std::string> labels;
    for (const obs::FleetWorkerRecord& w : r.fleet.worker_records) {
        units += w.units;
        shards += w.shards;
        trials += w.trials;
        if (std::find(labels.begin(), labels.end(), w.label) ==
            labels.end())
            labels.push_back(w.label);
    }
    if (r.metrics.findCounter("fleet.host.parent.units") != nullptr) {
        units += counter("fleet.host.parent.units");
        shards += counter("fleet.host.parent.shards");
        trials += counter("fleet.host.parent.trials");
        labels.push_back("parent");
    }
    std::uint64_t series_units = 0;
    std::uint64_t series_shards = 0;
    std::uint64_t series_trials = 0;
    std::size_t unit_series = 0;
    for (const obs::CounterValue& c : r.metrics.counters) {
        if (c.name.rfind("fleet.host.", 0) != 0)
            continue;
        for (const std::string& label : labels) {
            const std::string prefix = "fleet.host." + label + ".";
            if (c.name == prefix + "units") {
                series_units += c.value;
                ++unit_series;
            } else if (c.name == prefix + "shards") {
                series_shards += c.value;
            } else if (c.name == prefix + "trials") {
                series_trials += c.value;
            }
        }
    }
    EXPECT_EQ(unit_series, labels.size()); // one series per label
    EXPECT_EQ(units, series_units);
    EXPECT_EQ(shards, series_shards);
    EXPECT_EQ(trials, series_trials);
    EXPECT_EQ(series_units, counter("fleet.units_completed"));
    EXPECT_EQ(series_shards, counter("fleet.shards_completed"));
    EXPECT_EQ(series_trials, r.totalTrials());
}

/**
 * Fork a fleet agent process aimed at the local service. Must run
 * before service->run() (the process is still single-threaded; the
 * connect waits in the listener backlog). Sibling pipe fds accumulate
 * in @p inherited so later children do not hold them open.
 */
ChildProcess
forkAgent(int port, const std::string& secret, const std::string& name,
          std::vector<int>& inherited)
{
    net::FleetAgentOptions options;
    options.port = port;
    options.secret = secret;
    options.name = name;
    options.heartbeat_interval_s = 0.2;
    options.io_timeout_s = 20.0;
    options.backoff_initial_s = 0.1;
    options.backoff_max_s = 0.5;
    options.max_reconnects = 50;
    auto spawned = spawnChild(
        [options](int, int) { return net::runFleetAgent(options); },
        inherited);
    EXPECT_TRUE(spawned.ok()) << spawned.status().toString();
    if (!spawned.ok())
        return {};
    inherited.push_back(spawned.value().to_child);
    inherited.push_back(spawned.value().from_child);
    return spawned.value();
}

int
reapAgent(ChildProcess& agent)
{
    const Result<int> code = waitForExit(agent.pid);
    return code.ok() ? code.value() : -1;
}

TEST(FleetService, LoopbackAgentsProduceBitIdenticalTallies)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    const sim::CampaignResult reference =
        sim::CampaignRunner(smallSpec()).run();

    const sim::CampaignSpec spec = serviceSpec();
    auto service = net::FleetService::create(spec);
    ASSERT_TRUE(service.ok()) << service.status().toString();
    std::vector<int> inherited;
    ChildProcess alpha = forkAgent(service.value()->port(),
                                   spec.fleet_secret, "alpha",
                                   inherited);
    ChildProcess beta = forkAgent(service.value()->port(),
                                  spec.fleet_secret, "beta",
                                  inherited);

    const auto result = service.value()->run();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(reapAgent(alpha), 0);
    EXPECT_EQ(reapAgent(beta), 0);

    const sim::CampaignResult& r = result.value();
    EXPECT_EQ(r.fleet.workers, 2);
    EXPECT_EQ(r.fleet.agents_connected, 2u);
    EXPECT_EQ(r.fleet.auth_failures, 0u);
    ASSERT_EQ(r.fleet.worker_records.size(), 2u);
    for (const obs::FleetWorkerRecord& record : r.fleet.worker_records) {
        EXPECT_TRUE(record.remote);
        EXPECT_FALSE(record.lost);
        EXPECT_TRUE(record.agent == "alpha" || record.agent == "beta");
    }
    EXPECT_TRUE(r.errors.empty());
    expectCellsIdentical(reference, r);
}

TEST(FleetService, KilledAgentUnitIsRequeuedBitIdentically)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    const sim::CampaignResult reference =
        sim::CampaignRunner(smallSpec()).run();

    const sim::CampaignSpec spec = serviceSpec();
    auto service = net::FleetService::create(spec);
    ASSERT_TRUE(service.ok()) << service.status().toString();

    // Whichever agent is assigned worker index 1 self-kills when it
    // starts its second unit (the spec is inherited across fork).
    sim::ChaosSpec chaos;
    chaos.fleet_exit_worker = 1;
    chaos.fleet_exit_after = 1;
    sim::setChaosSpec(chaos);
    std::vector<int> inherited;
    ChildProcess alpha = forkAgent(service.value()->port(),
                                   spec.fleet_secret, "alpha",
                                   inherited);
    ChildProcess beta = forkAgent(service.value()->port(),
                                  spec.fleet_secret, "beta",
                                  inherited);
    sim::clearChaosSpec(); // the parent needs no faults armed

    const auto result = service.value()->run();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    std::vector<int> exits = {reapAgent(alpha), reapAgent(beta)};
    std::sort(exits.begin(), exits.end());
    EXPECT_EQ(exits[0], 0);
    EXPECT_EQ(exits[1], sim::kChaosFleetExitCode);

    const sim::CampaignResult& r = result.value();
    EXPECT_EQ(r.fleet.workers_lost, 1u);
    EXPECT_GE(r.fleet.requeues, 1u);
    EXPECT_TRUE(r.errors.empty());
    expectCellsIdentical(reference, r);
}

TEST(FleetService, SilentAgentTripsHeartbeatExpiryAndIsRetired)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    const sim::CampaignResult reference =
        sim::CampaignRunner(smallSpec()).run();

    // A tight liveness budget so the drill stays fast.
    const sim::CampaignSpec spec = serviceSpec(1.0);
    auto service = net::FleetService::create(spec);
    ASSERT_TRUE(service.ok()) << service.status().toString();

    // The agent holding worker index 1 hangs on its first unit with
    // its heartbeats silenced — the silent-host scenario.
    sim::ChaosSpec chaos;
    chaos.fleet_stall_worker = 1;
    chaos.fleet_stall_after = 0;
    sim::setChaosSpec(chaos);
    std::vector<int> inherited;
    ChildProcess alpha = forkAgent(service.value()->port(),
                                   spec.fleet_secret, "alpha",
                                   inherited);
    ChildProcess beta = forkAgent(service.value()->port(),
                                  spec.fleet_secret, "beta",
                                  inherited);
    sim::clearChaosSpec();

    const auto result = service.value()->run();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    // The stalled process hangs forever by design; reap both with a
    // kill (harmless for the one that already exited cleanly).
    killChild(alpha.pid);
    killChild(beta.pid);
    reapAgent(alpha);
    reapAgent(beta);

    const sim::CampaignResult& r = result.value();
    EXPECT_GE(r.fleet.heartbeat_expiries, 1u);
    EXPECT_GE(r.fleet.requeues, 1u);
    EXPECT_EQ(r.fleet.workers_lost, 1u);
    EXPECT_TRUE(r.errors.empty());
    expectCellsIdentical(reference, r);
}

TEST(FleetService, WrongSecretIsRejectedAndCounted)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    const sim::CampaignResult reference =
        sim::CampaignRunner(smallSpec()).run();

    const sim::CampaignSpec spec = serviceSpec();
    auto service = net::FleetService::create(spec);
    ASSERT_TRUE(service.ok()) << service.status().toString();
    std::vector<int> inherited;
    ChildProcess intruder = forkAgent(service.value()->port(),
                                      "wrong-secret", "intruder",
                                      inherited);
    ChildProcess honest = forkAgent(service.value()->port(),
                                    spec.fleet_secret, "honest",
                                    inherited);

    const auto result = service.value()->run();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(reapAgent(intruder), net::kAgentAuthExit);
    EXPECT_EQ(reapAgent(honest), 0);

    const sim::CampaignResult& r = result.value();
    EXPECT_EQ(r.fleet.auth_failures, 1u);
    EXPECT_EQ(r.fleet.agents_connected, 1u);
    ASSERT_EQ(r.fleet.worker_records.size(), 1u);
    EXPECT_EQ(r.fleet.worker_records[0].agent, "honest");
    EXPECT_TRUE(r.errors.empty());
    expectCellsIdentical(reference, r);
}

TEST(FleetService, GarbledUnitLineTriggersBackoffReconnect)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    const sim::CampaignResult reference =
        sim::CampaignRunner(smallSpec()).run();

    const sim::CampaignSpec spec = serviceSpec();
    auto service = net::FleetService::create(spec);
    ASSERT_TRUE(service.ok()) << service.status().toString();
    std::vector<int> inherited;
    ChildProcess agent = forkAgent(service.value()->port(),
                                   spec.fleet_secret, "solo",
                                   inherited);

    // Armed after the fork, so only the parent's wire is faulted:
    // its lines run challenge(0), welcome(1), config(2), first
    // unit(3) — the garbled unit makes the agent drop the session and
    // reconnect with backoff while the server requeues the unit.
    sim::ChaosSpec chaos;
    chaos.net_garble = 3;
    sim::setChaosSpec(chaos);
    const auto result = service.value()->run();
    sim::clearChaosSpec();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(reapAgent(agent), 0);

    const sim::CampaignResult& r = result.value();
    EXPECT_EQ(r.fleet.agents_connected, 2u); // same agent, twice
    EXPECT_GE(r.fleet.requeues, 1u);
    EXPECT_GE(r.fleet.workers_lost, 1u);
    ASSERT_EQ(r.fleet.worker_records.size(), 2u);
    EXPECT_TRUE(r.fleet.worker_records[0].lost);
    EXPECT_FALSE(r.fleet.worker_records[1].lost);
    EXPECT_TRUE(r.errors.empty());
    expectCellsIdentical(reference, r);

    // One row per connection, in accept order; both carry the agent's
    // label, which the host series merge into one host.
    for (std::size_t i = 0; i < 2; ++i) {
        const obs::FleetWorkerRecord& record = r.fleet.worker_records[i];
        EXPECT_EQ(record.worker, static_cast<int>(i));
        EXPECT_EQ(record.label, "solo");
        EXPECT_EQ(record.agent, "solo");
        EXPECT_TRUE(record.remote);
        EXPECT_EQ(record.exit_code, 0);
    }
    expectLedgerViewsAgree(r);
}

TEST(FleetService, UnitErrorForAnotherUnitRetiresTheHost)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    const sim::CampaignResult reference =
        sim::CampaignRunner(smallSpec()).run();

    // A short grace: once the rogue peer is retired no host is left,
    // and the service finishes in-process.
    sim::CampaignSpec spec = serviceSpec();
    spec.fleet_grace_s = 1.0;
    auto service = net::FleetService::create(spec);
    ASSERT_TRUE(service.ok()) << service.status().toString();

    // A hand-rolled peer that authenticates properly, then answers its
    // first unit with a unit_error naming a unit far outside the plan.
    const int port = service.value()->port();
    const std::string secret = spec.fleet_secret;
    std::vector<int> inherited;
    auto rogue = spawnChild(
        [port, secret](int, int) {
            auto fd = net::connectTcp({"127.0.0.1", port});
            if (!fd.ok())
                return 1;
            LineReader reader(fd.value(), sim::fleet::kMaxWireLineBytes);
            auto challenge = reader.readLine(10000);
            if (!challenge.ok())
                return 2;
            auto nonce = sim::fleet::decodeChallengeLine(challenge.value());
            if (!nonce.ok())
                return 3;
            writeAllFd(fd.value(),
                       sim::fleet::encodeAuthLine(
                           "rogue",
                           net::agentMac(secret, nonce.value(), "rogue")));
            auto welcome = reader.readLine(10000);
            if (!welcome.ok())
                return 4;
            auto decoded = sim::fleet::decodeWelcomeLine(welcome.value());
            if (!decoded.ok())
                return 5;
            if (!reader.readLine(10000).ok()) // config
                return 6;
            auto unit = reader.readLine(10000);
            if (!unit.ok())
                return 7;
            writeAllFd(fd.value(),
                       sim::fleet::encodeUnitErrorLine(
                           std::uint64_t{1} << 40, decoded.value().worker,
                           "not my unit"));
            // Hold the connection until the server hangs up.
            while (reader.readLine(10000).ok()) {
            }
            return 0;
        },
        inherited);
    ASSERT_TRUE(rogue.ok()) << rogue.status().toString();

    const auto result = service.value()->run();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(reapAgent(rogue.value()), 0);

    const sim::CampaignResult& r = result.value();
    EXPECT_EQ(r.fleet.agents_connected, 1u);
    EXPECT_EQ(r.fleet.workers_lost, 1u);
    EXPECT_GE(r.fleet.requeues, 1u);
    EXPECT_GT(r.fleet.parent_fallback_shards, 0u);
    EXPECT_TRUE(r.errors.empty());
    expectCellsIdentical(reference, r);
}

TEST(FleetService, ServerRestartResumesFromCheckpointBitIdentically)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    const sim::CampaignResult reference =
        sim::CampaignRunner(smallSpec()).run();

    const std::string checkpoint =
        ::testing::TempDir() + "net_server_restart.ckpt";
    std::remove(checkpoint.c_str());

    // Server #1 checkpoints after every settlement and dies to a
    // simulated SIGTERM mid-campaign (the chaos kill-point fires in
    // the parent after 10 merged shard tasks).
    sim::CampaignSpec spec = serviceSpec();
    spec.checkpoint_path = checkpoint;
    spec.checkpoint_interval_s = 0;
    auto first = net::FleetService::create(spec);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    std::vector<int> inherited;
    ChildProcess alpha = forkAgent(first.value()->port(),
                                   spec.fleet_secret, "alpha",
                                   inherited);
    sim::ChaosSpec chaos;
    chaos.kill_after = 10;
    sim::setChaosSpec(chaos);
    const auto interrupted = first.value()->run();
    sim::clearChaosSpec();
    clearInterrupt(); // the simulated SIGTERM latches until cleared
    ASSERT_TRUE(interrupted.ok()) << interrupted.status().toString();
    EXPECT_TRUE(interrupted.value().interrupted);
    EXPECT_EQ(reapAgent(alpha), 0); // drained, not hung up on

    // Server #2: the same campaign on a fresh ephemeral port resumes
    // from the checkpoint sidecar; a fresh agent finishes the rest.
    // The merged tallies must be bit-identical to an uninterrupted
    // in-process run.
    sim::CampaignSpec resume_spec = serviceSpec();
    resume_spec.checkpoint_path = checkpoint;
    resume_spec.resume = true;
    auto second = net::FleetService::create(resume_spec);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    ChildProcess beta = forkAgent(second.value()->port(),
                                  resume_spec.fleet_secret, "beta",
                                  inherited);
    const auto result = second.value()->run();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(reapAgent(beta), 0);

    const sim::CampaignResult& r = result.value();
    EXPECT_FALSE(r.interrupted);
    EXPECT_GT(r.resumed_shards, 0u);
    EXPECT_TRUE(r.errors.empty());
    expectCellsIdentical(reference, r);
    std::remove(checkpoint.c_str());
}

TEST(FleetService, InterruptDrainsAgentsGracefully)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    const sim::CampaignSpec spec = serviceSpec();
    auto service = net::FleetService::create(spec);
    ASSERT_TRUE(service.ok()) << service.status().toString();
    std::vector<int> inherited;
    ChildProcess agent = forkAgent(service.value()->port(),
                                   spec.fleet_secret, "drained",
                                   inherited);

    // Armed after the fork: only the parent counts merged tasks, so
    // the simulated SIGTERM fires in the service mid-campaign. The
    // agent must still exit 0 — it received a shutdown line, not a
    // hangup.
    sim::ChaosSpec chaos;
    chaos.kill_after = 10;
    sim::setChaosSpec(chaos);
    const auto result = service.value()->run();
    sim::clearChaosSpec();
    clearInterrupt(); // the simulated SIGTERM latches until cleared
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(reapAgent(agent), 0);
    EXPECT_TRUE(result.value().interrupted);
}

} // namespace
} // namespace gpuecc
