/**
 * @file
 * Tests for the fleet observability plane: Prometheus text
 * exposition, the fsync'd NDJSON event journal (writer and reader),
 * the live HTTP endpoint's hardening against hostile bytes, and the
 * end-to-end invariants — a campaign observed via --obs-listen and
 * --journal must produce tallies and CSV bit-identical to a blind
 * run, host-labelled metrics that sum to the fleet totals, and a
 * journal that replays to the same settlement counts the dispatcher
 * reported.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <unistd.h>
#endif

#include "common/subprocess.hpp"
#include "fleet/dispatch.hpp"
#include "fleet/journal.hpp"
#include "fleet/protocol.hpp"
#include "net/agent.hpp"
#include "net/obs_http.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "obs/exposition.hpp"
#include "obs/journal.hpp"
#include "sim/campaign.hpp"
#include "sim/chaos.hpp"
#include "sim/report.hpp"

namespace gpuecc {
namespace {

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

bool
netTestsSupported()
{
    return net::socketsSupported() && subprocessSupported();
}

// ---- Prometheus exposition ---------------------------------------------

TEST(Exposition, NamesArePrefixedAndSanitized)
{
    EXPECT_EQ(obs::prometheusName("fleet.units_settled"),
              "gpuecc_fleet_units_settled");
    EXPECT_EQ(obs::prometheusName("a-b c.d"), "gpuecc_a_b_c_d");
}

TEST(Exposition, LabelValuesAreEscaped)
{
    EXPECT_EQ(obs::prometheusLabelValue("plain"), "plain");
    EXPECT_EQ(obs::prometheusLabelValue("a\"b\\c\nd"),
              "a\\\"b\\\\c\\nd");
}

TEST(Exposition, HostSeriesGroupIntoLabelledFamilies)
{
    const std::string text = obs::renderPrometheusText({
        {"fleet.units_total", 8},
        {"fleet.host.units", 5, "alpha"},
        {"fleet.host.units", 3, "beta"},
        {"fleet.host.trials", 1000, "alpha"},
    });
    // Plain counter with TYPE header.
    EXPECT_NE(text.find("# TYPE gpuecc_fleet_units_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("gpuecc_fleet_units_total 8"),
              std::string::npos);
    // Host series become one family per suffix with a host label.
    EXPECT_NE(text.find("# TYPE gpuecc_fleet_host_units counter"),
              std::string::npos);
    EXPECT_NE(
        text.find("gpuecc_fleet_host_units{host=\"alpha\"} 5"),
        std::string::npos);
    EXPECT_NE(text.find("gpuecc_fleet_host_units{host=\"beta\"} 3"),
              std::string::npos);
    EXPECT_NE(
        text.find("gpuecc_fleet_host_trials{host=\"alpha\"} 1000"),
        std::string::npos);
    // One TYPE header per family, not per sample.
    const std::string family = "# TYPE gpuecc_fleet_host_units";
    EXPECT_EQ(text.find(family), text.rfind(family));
}

// ---- Event journal: writer -> reader round trip ------------------------

TEST(Journal, WriterReaderRoundTrip)
{
    // Every byte the shared JSON escaper rewrites, plus one it passes.
    const std::string kAwkward = "q\"b\\r\rn\nt\tc\x01 end";
    const std::string path = tempPath("obs_journal_roundtrip.ndjson");
    {
        auto journal = obs::EventJournal::open(path);
        ASSERT_TRUE(journal.ok()) << journal.status().toString();
        obs::EventJournal& j = *journal.value();
        j.append("start", {}, {{"units", 4}, {"pending", 4}});
        j.append("connect", {{"host", "alpha"}}, {{"remote", 1}});
        j.append("dispatch", {{"host", "alpha"}}, {{"unit", 0}});
        j.append("result", {{"host", "alpha"}},
                 {{"unit", 0}, {"shards", 4}, {"trials", 100}});
        j.append("drain", {}, {{"settled", 4}, {"interrupted", 0}});
        j.append("unit_error", {{"error", kAwkward}}, {{"unit", 1}});
        EXPECT_EQ(j.eventsWritten(), 6u);
    }

    auto text = sim::loadTextFile(path);
    ASSERT_TRUE(text.ok()) << text.status().toString();
    auto events = sim::fleet::parseJournal(text.value());
    ASSERT_TRUE(events.ok()) << events.status().toString();
    ASSERT_EQ(events.value().size(), 6u);
    const auto& e = events.value();
    EXPECT_EQ(e[0].seq, 1u);
    EXPECT_EQ(e[0].event, "start");
    EXPECT_EQ(e[0].num("units"), 4u);
    EXPECT_EQ(e[1].str("host"), "alpha");
    EXPECT_EQ(e[1].num("remote"), 1u);
    EXPECT_EQ(e[3].num("trials"), 100u);
    EXPECT_EQ(e[4].seq, 5u);
    EXPECT_EQ(e[5].str("error"), kAwkward);
    // Timestamps are relative to journal open and monotonic.
    for (std::size_t i = 1; i < e.size(); ++i)
        EXPECT_GE(e[i].ts_us, e[i - 1].ts_us);
    std::remove(path.c_str());
}

TEST(Journal, OpenFailureIsStructuredNotFatal)
{
    auto journal =
        obs::EventJournal::open("/nonexistent-dir/journal.ndjson");
    EXPECT_FALSE(journal.ok());
}

TEST(JournalReader, RejectsVersionSkew)
{
    const auto parsed = sim::fleet::parseJournal(
        "{\"v\":2,\"seq\":1,\"ts_us\":0,\"event\":\"start\"}\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), ErrorCode::failedPrecondition);
}

TEST(JournalReader, RejectsSequenceGap)
{
    const auto parsed = sim::fleet::parseJournal(
        "{\"v\":1,\"seq\":1,\"ts_us\":0,\"event\":\"start\"}\n"
        "{\"v\":1,\"seq\":3,\"ts_us\":5,\"event\":\"drain\"}\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), ErrorCode::dataLoss);
}

TEST(JournalReader, RejectsMalformedLines)
{
    EXPECT_FALSE(sim::fleet::parseJournal("[1,2,3]\n").ok());
    EXPECT_FALSE(sim::fleet::parseJournal("not json\n").ok());
    // Missing "event".
    EXPECT_FALSE(
        sim::fleet::parseJournal("{\"v\":1,\"seq\":1,\"ts_us\":0}\n")
            .ok());
}

TEST(JournalReader, SummarizesDispositionsAndLatency)
{
    const std::string text =
        "{\"v\":1,\"seq\":1,\"ts_us\":0,\"event\":\"start\","
        "\"units\":3,\"pending\":3,\"resumed\":0}\n"
        "{\"v\":1,\"seq\":2,\"ts_us\":10,\"event\":\"connect\","
        "\"host\":\"alpha\",\"remote\":1}\n"
        "{\"v\":1,\"seq\":3,\"ts_us\":20,\"event\":\"dispatch\","
        "\"host\":\"alpha\",\"unit\":0}\n"
        "{\"v\":1,\"seq\":4,\"ts_us\":1520,\"event\":\"result\","
        "\"host\":\"alpha\",\"unit\":0,\"shards\":4,\"trials\":100}\n"
        "{\"v\":1,\"seq\":5,\"ts_us\":1600,\"event\":\"duplicate\","
        "\"unit\":0}\n"
        "{\"v\":1,\"seq\":6,\"ts_us\":1700,\"event\":\"requeue\","
        "\"unit\":1,\"attempts\":2}\n"
        "{\"v\":1,\"seq\":7,\"ts_us\":1800,\"event\":\"poison\","
        "\"unit\":1,\"attempts\":3}\n"
        "{\"v\":1,\"seq\":8,\"ts_us\":1900,\"event\":\"skip\","
        "\"unit\":2}\n"
        "{\"v\":1,\"seq\":9,\"ts_us\":2000,\"event\":\"drain\","
        "\"settled\":3,\"interrupted\":0}\n";
    auto events = sim::fleet::parseJournal(text);
    ASSERT_TRUE(events.ok()) << events.status().toString();
    const sim::fleet::JournalSummary summary =
        sim::fleet::summarizeJournal(events.value());

    EXPECT_EQ(summary.events, 9u);
    EXPECT_EQ(summary.units_total, 3u);
    EXPECT_EQ(summary.results, 1u);
    EXPECT_EQ(summary.poisoned, 1u);
    EXPECT_EQ(summary.skipped, 1u);
    EXPECT_EQ(summary.unitsSettled(), 3u);
    EXPECT_EQ(summary.duplicates, 1u);
    EXPECT_EQ(summary.requeues, 1u);
    EXPECT_EQ(summary.connects, 1u);
    EXPECT_TRUE(summary.drained);
    EXPECT_FALSE(summary.interrupted);

    ASSERT_EQ(summary.hosts.size(), 1u);
    EXPECT_EQ(summary.hosts[0].host, "alpha");
    EXPECT_EQ(summary.hosts[0].dispatches, 1u);
    EXPECT_EQ(summary.hosts[0].results, 1u);
    EXPECT_EQ(summary.hosts[0].latency_count, 1u);
    EXPECT_EQ(summary.hosts[0].latency_max_us, 1500u);
    // 1500 µs lands in the <= 10 ms bucket (bounds 1ms, 10ms, ...).
    ASSERT_GE(summary.latency_buckets.size(), 2u);
    EXPECT_EQ(summary.latency_buckets[1], 1u);

    const std::string timeline =
        sim::fleet::formatJournalTimeline(events.value());
    EXPECT_NE(timeline.find("#1 start"), std::string::npos);
    EXPECT_NE(timeline.find("host=alpha"), std::string::npos);
    const std::string report =
        sim::fleet::formatJournalSummary(summary);
    EXPECT_NE(report.find("3 total"), std::string::npos);
    EXPECT_NE(report.find("alpha"), std::string::npos);
    EXPECT_NE(report.find("drain: clean"), std::string::npos);
}

// ---- Fleet campaigns under observation ---------------------------------

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

/** Sum of the fleet.host.<label>.units counters in a snapshot. */
std::uint64_t
hostUnitsTotal(const obs::MetricsSnapshot& metrics)
{
    std::uint64_t total = 0;
    for (const obs::CounterValue& c : metrics.counters) {
        if (c.name.rfind("fleet.host.", 0) == 0 &&
            c.name.size() > 6 &&
            c.name.compare(c.name.size() - 6, 6, ".units") == 0)
            total += c.value;
    }
    return total;
}

TEST(ObsPlane, PipeFleetJournalReplaysToDispatcherCounts)
{
    if (!subprocessSupported())
        GTEST_SKIP() << "fork/pipe unavailable";
    const sim::CampaignResult reference =
        sim::CampaignRunner(smallSpec()).run();

    sim::CampaignSpec spec = smallSpec();
    spec.fleet_workers = 2;
    const std::string journal_path =
        tempPath("obs_pipe_journal.ndjson");
    spec.journal_path = journal_path;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();

    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);
    // The journal must never leak into the deterministic artifacts.
    EXPECT_EQ(sim::campaignCsv(reference), sim::campaignCsv(fleet));

    // Host-labelled metrics: per-host unit counters sum to the total.
    EXPECT_GT(fleet.fleet.units, 0u);
    EXPECT_EQ(hostUnitsTotal(fleet.metrics), fleet.fleet.units);

    // The journal replays to the dispatcher's own settlement counts.
    auto text = sim::loadTextFile(journal_path);
    ASSERT_TRUE(text.ok()) << text.status().toString();
    auto events = sim::fleet::parseJournal(text.value());
    ASSERT_TRUE(events.ok()) << events.status().toString();
    const sim::fleet::JournalSummary summary =
        sim::fleet::summarizeJournal(events.value());
    EXPECT_EQ(summary.units_total, fleet.fleet.units);
    EXPECT_EQ(summary.unitsSettled(), fleet.fleet.units);
    EXPECT_TRUE(summary.drained);
    EXPECT_FALSE(summary.interrupted);
    // Both pipe workers appear as hosts with dispatch latencies.
    std::uint64_t host_results = 0;
    for (const sim::fleet::JournalHostSummary& h : summary.hosts) {
        EXPECT_EQ(h.host.rfind("local-", 0), 0u) << h.host;
        host_results += h.results;
    }
    EXPECT_EQ(host_results, summary.results);
    std::remove(journal_path.c_str());
}

TEST(ObsPlane, DuplicateResultsDoNotDoubleCountHostMetrics)
{
    // Drive the dispatcher directly: absorb one telemetry line, then
    // deliver the same result twice. The host's credit and shipped
    // counters must ride the settled-exactly-once gate — the replay
    // is discarded and counted, never double-merged.
    sim::CampaignSpec spec = smallSpec();
    spec.fleet_workers = 1;
    const std::string journal_path =
        tempPath("obs_dup_journal.ndjson");
    spec.journal_path = journal_path;
    auto created = sim::fleet::FleetDispatch::create(spec);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    sim::fleet::FleetDispatch& dispatch = *created.value();
    dispatch.start();
    dispatch.registerHost(0, "alpha", true);

    std::uint64_t u = 0;
    ASSERT_TRUE(dispatch.waitClaim(u, {}));
    dispatch.noteUnitDispatched(u, 0);

    sim::fleet::WorkerMessage telemetry;
    telemetry.kind = sim::fleet::WorkerMessage::Kind::telemetry;
    telemetry.worker = 0;
    telemetry.unit = u;
    telemetry.now_us = 500;
    telemetry.counters = {{"campaign.trials", 100}};
    dispatch.absorbTelemetry(telemetry);

    sim::fleet::WorkerMessage result;
    result.kind = sim::fleet::WorkerMessage::Kind::result;
    result.worker = 0;
    result.unit = u;
    result.busy_us = 1000;
    const auto now = sim::fleet::FleetDispatch::Clock::now();
    EXPECT_TRUE(dispatch.completeUnit(result, now, now));
    // The replayed delivery must be discarded and counted.
    EXPECT_FALSE(dispatch.completeUnit(result, now, now));

    const sim::fleet::DispatchStatus status = dispatch.status();
    EXPECT_EQ(status.fleet.duplicate_results, 1u);
    ASSERT_EQ(status.hosts.size(), 1u);
    EXPECT_EQ(status.hosts[0].units, 1u); // credited exactly once

    dispatch.finishInProcess();
    const sim::CampaignResult r = dispatch.finalize();
    EXPECT_EQ(r.fleet.duplicate_results, 1u);
    // The shipped counter delta surfaces once under the host label.
    std::uint64_t alpha_trials_metric = 0;
    std::uint64_t alpha_units = 0;
    for (const obs::CounterValue& c : r.metrics.counters) {
        if (c.name == "fleet.host.alpha.campaign.trials")
            alpha_trials_metric = c.value;
        if (c.name == "fleet.host.alpha.units")
            alpha_units = c.value;
    }
    EXPECT_EQ(alpha_trials_metric, 100u);
    EXPECT_EQ(alpha_units, 1u);

    // The journal saw the duplicate and still replays to the
    // dispatcher's settlement counts.
    auto text = sim::loadTextFile(journal_path);
    ASSERT_TRUE(text.ok()) << text.status().toString();
    auto events = sim::fleet::parseJournal(text.value());
    ASSERT_TRUE(events.ok()) << events.status().toString();
    const sim::fleet::JournalSummary summary =
        sim::fleet::summarizeJournal(events.value());
    EXPECT_EQ(summary.duplicates, 1u);
    EXPECT_GE(summary.unitsSettled(), 1u);
    std::remove(journal_path.c_str());
}

TEST(ObsPlane, DottedHostLabelKeepsItsMetricsFamily)
{
    // Host labels are free-form — an agent's --name is often a
    // hostname — so /metrics must carry a dotted label whole, under
    // the host family, never split it into a family of its own.
    sim::CampaignSpec spec = smallSpec();
    spec.fleet_workers = 1;
    auto created = sim::fleet::FleetDispatch::create(spec);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    sim::fleet::FleetDispatch& dispatch = *created.value();
    dispatch.start();
    dispatch.registerHost(0, "node1.example", true);

    std::uint64_t u = 0;
    ASSERT_TRUE(dispatch.waitClaim(u, {}));
    sim::fleet::WorkerMessage result;
    result.kind = sim::fleet::WorkerMessage::Kind::result;
    result.worker = 0;
    result.unit = u;
    const auto now = sim::fleet::FleetDispatch::Clock::now();
    ASSERT_TRUE(dispatch.completeUnit(result, now, now));

    const std::string text =
        sim::fleet::statusMetricsText(dispatch.status());
    EXPECT_NE(
        text.find("\ngpuecc_fleet_host_units{host=\"node1.example\"} 1\n"),
        std::string::npos)
        << text;
    // The only *_units family under gpuecc_fleet_host_ is the host one.
    std::size_t at = 0;
    while ((at = text.find("# TYPE gpuecc_fleet_host_", at)) !=
           std::string::npos) {
        const std::size_t end = text.find(' ', at + 7);
        const std::string family = text.substr(at + 7, end - at - 7);
        if (family.size() >= 6 &&
            family.compare(family.size() - 6, 6, "_units") == 0) {
            EXPECT_EQ(family, "gpuecc_fleet_host_units");
        }
        at = end;
    }

    dispatch.finishInProcess();
    dispatch.finalize();
}

#if defined(__unix__) || defined(__APPLE__)

/** One blocking HTTP GET; returns the raw response (or ""). */
std::string
httpGet(int port, const std::string& request)
{
    auto fd = net::connectTcp({"127.0.0.1", port});
    if (!fd.ok())
        return "";
    int sock = fd.value();
    if (!writeAllFd(sock, request, 2000).ok()) {
        closeFd(sock);
        return "";
    }
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(sock, buf, sizeof buf);
        if (n <= 0)
            break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    closeFd(sock);
    return response;
}

std::string
httpGetPath(int port, const std::string& path)
{
    return httpGet(port, "GET " + path +
                             " HTTP/1.1\r\nHost: test\r\n"
                             "Connection: close\r\n\r\n");
}

/**
 * Fork a fleet agent aimed at the local service (same discipline as
 * test_net: before run(), while the process is single-threaded).
 */
ChildProcess
forkAgent(int port, const std::string& secret,
          const std::string& name, std::vector<int>& inherited)
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

TEST(ObsPlane, ServiceCampaignServesLiveEndpointsAndStaysIdentical)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    const sim::CampaignResult reference =
        sim::CampaignRunner(smallSpec()).run();

    sim::CampaignSpec spec = smallSpec();
    spec.fleet_listen = "127.0.0.1:0";
    spec.fleet_secret = "test-secret";
    spec.fleet_grace_s = 60.0;
    spec.obs_listen = "127.0.0.1:0";
    const std::string journal_path =
        tempPath("obs_service_journal.ndjson");
    spec.journal_path = journal_path;

    auto service = net::FleetService::create(spec);
    ASSERT_TRUE(service.ok()) << service.status().toString();
    const int obs_port = service.value()->obsPort();
    ASSERT_GT(obs_port, 0);

    std::vector<int> inherited;
    ChildProcess alpha = forkAgent(service.value()->port(),
                                   spec.fleet_secret, "alpha",
                                   inherited);
    ChildProcess beta = forkAgent(service.value()->port(),
                                  spec.fleet_secret, "beta",
                                  inherited);

    // Scrape both endpoints (and poke the error paths) from a second
    // thread for the whole campaign: the run must neither block nor
    // change results under observation.
    std::atomic<bool> done{false};
    std::string last_metrics;
    std::string last_status;
    std::thread scraper([&] {
        while (!done.load()) {
            const std::string metrics =
                httpGetPath(obs_port, "/metrics");
            if (metrics.find("200 OK") != std::string::npos)
                last_metrics = metrics;
            const std::string status =
                httpGetPath(obs_port, "/status");
            if (status.find("200 OK") != std::string::npos)
                last_status = status;
            httpGetPath(obs_port, "/nope");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    });

    const auto result = service.value()->run();
    done.store(true);
    scraper.join();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    waitForExit(alpha.pid);
    waitForExit(beta.pid);
    const sim::CampaignResult& r = result.value();

    EXPECT_TRUE(r.errors.empty());
    expectCellsIdentical(reference, r);
    EXPECT_EQ(sim::campaignCsv(reference), sim::campaignCsv(r));

    // One more scrape after the drain still answers (the endpoint
    // stops only at finalize); check the final document's shape.
    EXPECT_NE(last_metrics.find("gpuecc_fleet_units_total"),
              std::string::npos);
    EXPECT_NE(last_status.find("\"units\""), std::string::npos);
    EXPECT_NE(last_status.find("\"hosts\""), std::string::npos);

    // Host-labelled metrics from remote agents sum to the total.
    EXPECT_EQ(hostUnitsTotal(r.metrics), r.fleet.units);

    // The journal replays to the dispatcher's settlement counts with
    // both agents present as hosts.
    auto text = sim::loadTextFile(journal_path);
    ASSERT_TRUE(text.ok()) << text.status().toString();
    auto events = sim::fleet::parseJournal(text.value());
    ASSERT_TRUE(events.ok()) << events.status().toString();
    const sim::fleet::JournalSummary summary =
        sim::fleet::summarizeJournal(events.value());
    EXPECT_EQ(summary.unitsSettled(), r.fleet.units);
    EXPECT_GE(summary.connects, 2u);
    EXPECT_TRUE(summary.drained);
    bool saw_alpha = false;
    bool saw_beta = false;
    for (const sim::fleet::JournalHostSummary& h : summary.hosts) {
        saw_alpha = saw_alpha || h.host == "alpha";
        saw_beta = saw_beta || h.host == "beta";
    }
    EXPECT_TRUE(saw_alpha);
    EXPECT_TRUE(saw_beta);
    std::remove(journal_path.c_str());
}

TEST(ObsPlane, PipeFleetServesLiveStatusMidRun)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets/fork unavailable";
    const sim::CampaignResult reference =
        sim::CampaignRunner(smallSpec()).run();

    // Local workers only: the same driver serves the endpoint without
    // a fleet listen address.
    sim::CampaignSpec spec = smallSpec();
    spec.fleet_workers = 2;
    spec.obs_listen = "127.0.0.1:0";
    auto service = net::FleetService::create(spec);
    ASSERT_TRUE(service.ok()) << service.status().toString();
    const int obs_port = service.value()->obsPort();
    ASSERT_GT(obs_port, 0);

    // Scrape from a forked process rather than a thread: run() forks
    // the local workers and must do so while this process is still
    // single-threaded. The scraper reports the first /status document
    // served — one the endpoint can only serve mid-campaign.
    auto scraper = spawnChild(
        [obs_port](int, int write_fd) {
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::seconds(30);
            while (std::chrono::steady_clock::now() < until) {
                auto fd = net::connectTcp({"127.0.0.1", obs_port});
                if (fd.ok()) {
                    writeAllFd(fd.value(),
                               "GET /status HTTP/1.1\r\nHost: test\r\n"
                               "Connection: close\r\n\r\n",
                               2000);
                    // Poll before every read: this process holds a copy
                    // of the endpoint's listening socket, so a connect
                    // after the campaign ends is never answered.
                    std::string response;
                    char buf[4096];
                    struct pollfd p = {fd.value(), POLLIN, 0};
                    while (::poll(&p, 1, 2000) > 0) {
                        const ssize_t n = ::read(fd.value(), buf, sizeof buf);
                        if (n <= 0)
                            break;
                        response.append(buf, static_cast<std::size_t>(n));
                    }
                    closeFd(fd.value());
                    if (response.find("200 OK") != std::string::npos) {
                        writeAllFd(write_fd, response + "\n");
                        return 0;
                    }
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
            return 1;
        },
        {});
    ASSERT_TRUE(scraper.ok()) << scraper.status().toString();

    const auto result = service.value()->run();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    std::string status;
    LineReader from_scraper(scraper.value().from_child);
    for (auto line = from_scraper.readLine(); line.ok();
         line = from_scraper.readLine())
        status += line.value() + "\n";
    EXPECT_EQ(waitForExit(scraper.value().pid).value(), 0);
    closeFd(scraper.value().to_child);
    closeFd(scraper.value().from_child);

    EXPECT_NE(status.find("\"units\""), std::string::npos) << status;
    EXPECT_NE(status.find("local-0"), std::string::npos) << status;
    EXPECT_NE(status.find("local-1"), std::string::npos) << status;

    const sim::CampaignResult& r = result.value();
    EXPECT_TRUE(r.errors.empty());
    EXPECT_EQ(r.fleet.workers, 2);
    expectCellsIdentical(reference, r);
    EXPECT_EQ(sim::campaignCsv(reference), sim::campaignCsv(r));
}

TEST(ObsHttp, EndpointSurvivesHostileBytes)
{
    if (!netTestsSupported())
        GTEST_SKIP() << "sockets unavailable";
    auto server_result =
        net::ObsHttpServer::create({"127.0.0.1", 0});
    ASSERT_TRUE(server_result.ok())
        << server_result.status().toString();
    net::ObsHttpServer& server = *server_result.value();
    server.serve([](const std::string& path) {
        net::ObsResponse out;
        if (path == "/ok") {
            out.found = true;
            out.body = "fine\n";
        }
        return out;
    });
    const int port = server.port();

    // Garbage, truncation, oversize, early hangup, wrong method —
    // none may wedge the server or crash; a clean GET still works
    // after each one.
    const std::string attacks[] = {
        std::string("\x01\x02\x7f garbage\r\n\r\n"),
        "GE", // truncated, then EOF
        "GET /" + std::string(20000, 'a') + " HTTP/1.1\r\n\r\n",
        "", // connect then immediate hangup
        "POST /ok HTTP/1.1\r\n\r\n",
        "GET\r\n\r\n",
    };
    for (const std::string& attack : attacks) {
        httpGet(port, attack); // must return (close or 400), not hang
        const std::string ok = httpGetPath(port, "/ok");
        EXPECT_NE(ok.find("200 OK"), std::string::npos)
            << "endpoint wedged after attack";
        EXPECT_NE(ok.find("fine"), std::string::npos);
    }
    const std::string missing = httpGetPath(port, "/missing");
    EXPECT_NE(missing.find("404"), std::string::npos);
    server.stop();
}

#endif // __unix__ || __APPLE__

} // namespace
} // namespace gpuecc
