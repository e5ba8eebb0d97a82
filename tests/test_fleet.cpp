/** @file Tests for the fleet dispatcher and its wire protocol. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "common/interrupt.hpp"
#include "common/subprocess.hpp"
#include "fleet/dispatch.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"
#include "sim/campaign_core.hpp"
#include "sim/chaos.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"

namespace gpuecc {
namespace {

using sim::fleet::WorkerMessage;
using sim::fleet::WorkUnit;

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + name;
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
        EXPECT_EQ(x.exhaustive, y.exhaustive) << "cell " << i;
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

TEST(FleetProtocol, UnitLineRoundTripsWithoutParentBookkeeping)
{
    WorkUnit unit;
    unit.unit = 7;
    unit.cell = 5; // parent-side only; must not travel
    unit.first_task = 40;
    unit.task_count = 4;

    const auto decoded =
        sim::fleet::decodeServerLine(sim::fleet::encodeUnitLine(unit));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    ASSERT_EQ(decoded.value().kind,
              sim::fleet::ServerMessage::Kind::unit);
    EXPECT_EQ(decoded.value().unit.unit, 7u);
    EXPECT_EQ(decoded.value().unit.first_task, 40u);
    EXPECT_EQ(decoded.value().unit.task_count, 4u);
    EXPECT_EQ(decoded.value().unit.cell, 0u);
}

TEST(FleetProtocol, ResultLineCarriesCheckpointTallies)
{
    WorkerMessage msg;
    msg.kind = WorkerMessage::Kind::result;
    msg.unit = 11;
    msg.worker = 2;
    msg.busy_us = 123456;
    msg.checkpoint.fingerprint = "fp";
    sim::CheckpointEntry sampled;
    sampled.task = 40;
    sampled.counts.trials = 100;
    sampled.counts.dce = 90;
    sampled.counts.due = 7;
    sampled.counts.sdc = 3;
    msg.checkpoint.done.push_back(sampled);
    sim::CheckpointEntry exhaustive;
    exhaustive.task = 41;
    exhaustive.counts.trials = 288;
    exhaustive.counts.dce = 288;
    exhaustive.counts.exhaustive = true;
    msg.checkpoint.done.push_back(exhaustive);

    const auto decoded = sim::fleet::decodeWorkerLine(
        sim::fleet::encodeResultLine(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const WorkerMessage& d = decoded.value();
    EXPECT_EQ(d.kind, WorkerMessage::Kind::result);
    EXPECT_EQ(d.unit, 11u);
    EXPECT_EQ(d.worker, 2);
    EXPECT_EQ(d.busy_us, 123456u);
    EXPECT_EQ(d.checkpoint.fingerprint, "fp");
    ASSERT_EQ(d.checkpoint.done.size(), 2u);
    EXPECT_EQ(d.checkpoint.done[0].task, 40u);
    EXPECT_EQ(d.checkpoint.done[0].counts.trials, 100u);
    EXPECT_EQ(d.checkpoint.done[0].counts.sdc, 3u);
    EXPECT_TRUE(d.checkpoint.done[1].counts.exhaustive);
}

TEST(FleetProtocol, ErrorLinesRoundTrip)
{
    const auto unit_err = sim::fleet::decodeWorkerLine(
        sim::fleet::encodeUnitErrorLine(9, 1, "cell failed twice"));
    ASSERT_TRUE(unit_err.ok());
    EXPECT_EQ(unit_err.value().kind, WorkerMessage::Kind::unit_error);
    EXPECT_EQ(unit_err.value().unit, 9u);
    EXPECT_EQ(unit_err.value().worker, 1);
    EXPECT_EQ(unit_err.value().message, "cell failed twice");

    const auto worker_err = sim::fleet::decodeWorkerLine(
        sim::fleet::encodeWorkerErrorLine(4, "fingerprint mismatch"));
    ASSERT_TRUE(worker_err.ok());
    EXPECT_EQ(worker_err.value().kind,
              WorkerMessage::Kind::worker_error);
    EXPECT_EQ(worker_err.value().worker, 4);
    EXPECT_EQ(worker_err.value().message, "fingerprint mismatch");
}

TEST(FleetProtocol, GarbageLinesAreStructuredErrors)
{
    EXPECT_FALSE(sim::fleet::decodeServerLine("not json\n").ok());
    EXPECT_FALSE(sim::fleet::decodeServerLine("{}\n").ok());
    EXPECT_FALSE(sim::fleet::decodeServerLine("[1,2]\n").ok());
    EXPECT_FALSE(sim::fleet::decodeWorkerLine("{\"type\":\"bogus\"}\n")
                     .ok());
}

TEST(NetProtocol, ChaosSpecParsesNetworkAndFleetUnitKeys)
{
    const auto parsed = sim::parseChaosSpec(
        "fleet_exit_unit=9,fleet_exit_unit_count=-1,"
        "fleet_stall_unit=11,fleet_stall_worker=0,fleet_stall_after=2");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const sim::ChaosSpec& c = parsed.value();
    EXPECT_EQ(c.fleet_exit_unit, 9);
    EXPECT_EQ(c.fleet_exit_unit_count, -1);
    EXPECT_EQ(c.fleet_stall_unit, 11);
    EXPECT_EQ(c.fleet_stall_worker, 0);
    EXPECT_EQ(c.fleet_stall_after, 2);

    // The network fault keys went with the TCP transport: they are
    // unknown keys now, refused like any other typo.
    const auto net = sim::parseChaosSpec("net_garble=3");
    ASSERT_FALSE(net.ok());
    EXPECT_EQ(net.status().code(), ErrorCode::invalidArgument);
    EXPECT_NE(net.status().message().find("unknown chaos key 'net_garble'"),
              std::string::npos)
        << net.status().toString();
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
        (void)sim::fleet::decodeWorkerLine(line);
        (void)sim::fleet::decodeServerLine(line);
    }
}

TEST(Wire, OversizedLineIsDataLossAndPoisonsTheStream)
{
    if (!subprocessSupported())
        GTEST_SKIP() << "fork/pipe unavailable";
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

TEST(FleetWorker, ServesUnitsFromItsInheritedPlan)
{
    if (!subprocessSupported())
        GTEST_SKIP() << "fork/pipe unavailable";
    // The worker loop runs here, on the caller's plan, as a forked
    // child runs on the plan it inherited.
    const sim::CampaignSpec spec = smallSpec();
    std::vector<sim::CampaignError> skipped;
    const Result<sim::CampaignPlan> built = sim::CampaignPlan::build(
        spec.scheme_ids, spec.patterns, spec.samples, spec.seed, 1024,
        skipped);
    ASSERT_TRUE(built.ok()) << built.status().toString();
    const sim::CampaignPlan& plan = built.value();
    ASSERT_GE(plan.tasks.size(), 3u);

    // Feed the worker @p lines, then EOF; collect its exit code and
    // every line it wrote back.
    const auto serve = [&plan](const std::string& lines, int& code) {
        int to_worker[2];
        int from_worker[2];
        EXPECT_EQ(::pipe(to_worker), 0);
        EXPECT_EQ(::pipe(from_worker), 0);
        EXPECT_TRUE(writeAllFd(to_worker[1], lines).ok());
        closeFd(to_worker[1]);
        code = sim::fleet::fleetWorkerMain(plan, 1, to_worker[0],
                                           from_worker[1], 60000);
        closeFd(to_worker[0]);
        closeFd(from_worker[1]);
        std::vector<WorkerMessage> replies;
        LineReader reader(from_worker[0]);
        for (Result<std::string> line = reader.readLine(); line.ok();
             line = reader.readLine()) {
            const auto msg = sim::fleet::decodeWorkerLine(line.value());
            EXPECT_TRUE(msg.ok()) << msg.status().toString();
            if (msg.ok())
                replies.push_back(msg.value());
        }
        closeFd(from_worker[0]);
        return replies;
    };

    WorkUnit unit;
    unit.unit = 5;
    unit.first_task = 1;
    unit.task_count = 2;
    int code = -1;
    std::vector<WorkerMessage> replies =
        serve(sim::fleet::encodeUnitLine(unit) +
                  sim::fleet::encodeShutdownLine(),
              code);
    EXPECT_EQ(code, 0);
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(replies[0].kind, WorkerMessage::Kind::telemetry);
    EXPECT_EQ(replies[0].worker, 1);
    const WorkerMessage& result = replies[1];
    ASSERT_EQ(result.kind, WorkerMessage::Kind::result);
    EXPECT_EQ(result.unit, 5u);
    EXPECT_EQ(result.worker, 1);
    EXPECT_EQ(result.checkpoint.fingerprint, plan.fingerprint());
    ASSERT_EQ(result.checkpoint.done.size(), 2u);
    ShardBatchArena arena;
    for (std::size_t k = 0; k < 2; ++k) {
        const sim::CheckpointEntry& got = result.checkpoint.done[k];
        EXPECT_EQ(got.task, unit.first_task + k);
        const Result<OutcomeCounts> want =
            plan.evaluateTask(got.task, arena);
        ASSERT_TRUE(want.ok()) << want.status().toString();
        EXPECT_EQ(got.counts.trials, want.value().trials);
        EXPECT_EQ(got.counts.dce, want.value().dce);
        EXPECT_EQ(got.counts.due, want.value().due);
        EXPECT_EQ(got.counts.sdc, want.value().sdc);
        EXPECT_EQ(got.counts.exhaustive, want.value().exhaustive);
    }

    // A unit outside the plan — past its end, or a range whose end
    // wraps around — retires the worker before it evaluates anything.
    for (const std::uint64_t first :
         {static_cast<std::uint64_t>(plan.tasks.size()),
          ~std::uint64_t{0}}) {
        unit.first_task = first;
        replies = serve(sim::fleet::encodeUnitLine(unit), code);
        EXPECT_EQ(code, sim::fleet::kWorkerProtocolExit);
        ASSERT_EQ(replies.size(), 1u);
        EXPECT_EQ(replies[0].kind, WorkerMessage::Kind::worker_error);
        EXPECT_NE(replies[0].message.find("outside the plan"),
                  std::string::npos)
            << replies[0].message;
    }
}

TEST(Fleet, TalliesBitIdenticalToInProcess)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult in_process =
        sim::CampaignRunner(spec).run();
    ASSERT_EQ(in_process.fleet.workers, 0);

    spec.fleet_workers = 2;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    EXPECT_EQ(fleet.fleet.workers, 2);
    EXPECT_GT(fleet.fleet.units, 0u);
    EXPECT_EQ(fleet.fleet.worker_records.size(), 2u);
    EXPECT_EQ(fleet.fleet.workers_lost, 0);
    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(in_process, fleet);
}

TEST(Fleet, KilledWorkerUnitIsRequeuedBitIdentically)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Worker 1 self-kills when it starts its first unit; its
    // in-flight unit must be re-queued and finished by worker 0. The
    // service hands every worker its first unit before any liaison
    // thread runs, so worker 1 dies however the threads are scheduled
    // (a kill on its second unit never fired when worker 0 settled
    // the whole plan first).
    sim::ChaosSpec chaos;
    chaos.fleet_exit_worker = 1;
    chaos.fleet_exit_after = 0;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_EQ(fleet.fleet.workers_lost, 1);
    EXPECT_GE(fleet.fleet.requeues, 1u);
    ASSERT_EQ(fleet.fleet.worker_records.size(), 2u);
    EXPECT_TRUE(fleet.fleet.worker_records[1].lost);
    EXPECT_FALSE(fleet.fleet.worker_records[0].lost);
    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);

    // One row per forked worker, in fork order, with its fate.
    const auto& records = fleet.fleet.worker_records;
    EXPECT_EQ(records[0].worker, 0);
    EXPECT_EQ(records[1].worker, 1);
    EXPECT_EQ(records[0].label, "local-0");
    EXPECT_EQ(records[1].label, "local-1");
    EXPECT_EQ(records[0].exit_code, 0);
    EXPECT_EQ(records[1].exit_code, sim::kChaosFleetExitCode);
    expectLedgerViewsAgree(fleet);
}

TEST(Fleet, AllWorkersLostFallsBackToParent)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    sim::ChaosSpec chaos;
    chaos.fleet_exit_worker = 0;
    chaos.fleet_exit_after = 0; // dies on its very first unit
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 1;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_EQ(fleet.fleet.workers_lost, 1);
    EXPECT_GT(fleet.fleet.parent_fallback_shards, 0u);
    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);
}

TEST(Fleet, PoisonUnitIsRetiredAtTheRequeueCap)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Unit 0 kills every worker it lands on; after
    // fleet_max_unit_attempts hosts die, the dispatcher must retire
    // it as poisoned (dropping its scheme) instead of feeding it the
    // whole fleet.
    sim::ChaosSpec chaos;
    chaos.fleet_exit_unit = 0;
    chaos.fleet_exit_unit_count = -1;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 4;
    spec.fleet_max_unit_attempts = 3;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_EQ(fleet.fleet.units_poisoned, 1u);
    EXPECT_EQ(fleet.fleet.workers_lost, 3u);
    ASSERT_FALSE(fleet.errors.empty());
    // Unit 0 belongs to the first scheme of the plan; that scheme is
    // dropped and reported, the survivor stays bit-identical.
    EXPECT_EQ(fleet.errors[0].scheme_id, "ni-secded");
    EXPECT_FALSE(fleet.hasScheme("ni-secded"));
    ASSERT_TRUE(fleet.hasScheme("duet"));
    for (const ErrorPattern pattern :
         {ErrorPattern::oneBit, ErrorPattern::oneBeat}) {
        const OutcomeCounts& want = reference.counts("duet", pattern);
        const OutcomeCounts& got = fleet.counts("duet", pattern);
        EXPECT_EQ(want.trials, got.trials);
        EXPECT_EQ(want.dce, got.dce);
        EXPECT_EQ(want.due, got.due);
        EXPECT_EQ(want.sdc, got.sdc);
    }
}

TEST(Fleet, HungWorkerTripsTheUnitDeadline)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Worker 0 hangs on its first unit without dying; only the
    // --fleet-worker-timeout round-trip deadline can catch it.
    sim::ChaosSpec chaos;
    chaos.fleet_stall_worker = 0;
    chaos.fleet_stall_after = 0;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    spec.fleet_worker_timeout_s = 1.0;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_GE(fleet.fleet.worker_timeouts, 1u);
    EXPECT_GE(fleet.fleet.requeues, 1u);
    EXPECT_EQ(fleet.fleet.workers_lost, 1u);
    ASSERT_EQ(fleet.fleet.worker_records.size(), 2u);
    EXPECT_TRUE(fleet.fleet.worker_records[0].lost);
    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);
}

TEST(Fleet, SilentWorkerTripsHeartbeatExpiry)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Worker 1 hangs on its first unit with its heartbeats silenced —
    // the silent-host scenario. With no unit deadline, only the
    // heartbeat budget can catch it; a tight one keeps the drill fast.
    sim::ChaosSpec chaos;
    chaos.fleet_stall_worker = 1;
    chaos.fleet_stall_after = 0;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    spec.fleet_heartbeat_timeout_s = 1.0;
    spec.fleet_worker_timeout_s = 0.0;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_GE(fleet.fleet.heartbeat_expiries, 1u);
    EXPECT_GE(fleet.fleet.requeues, 1u);
    EXPECT_EQ(fleet.fleet.workers_lost, 1u);
    EXPECT_EQ(fleet.fleet.worker_timeouts, 0u);
    ASSERT_EQ(fleet.fleet.worker_records.size(), 2u);
    EXPECT_FALSE(fleet.fleet.worker_records[0].lost);
    EXPECT_TRUE(fleet.fleet.worker_records[1].lost);
    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);
}

TEST(Fleet, WorkerShardRetriesAreCountedPerHost)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Task 3's first attempt throws inside whichever worker runs it;
    // the shared retry path must recover it and count the retry, and
    // the count must reach the parent as a host-labelled series.
    sim::ChaosSpec chaos;
    chaos.task_fault = 3;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);
    std::uint64_t retries = 0;
    for (const obs::CounterValue& c : fleet.metrics.counters) {
        if (c.name == "fleet.host.local-0.campaign.shard_retries" ||
            c.name == "fleet.host.local-1.campaign.shard_retries")
            retries += c.value;
    }
    EXPECT_GE(retries, 1u);
}

TEST(FleetDispatch, IdleWaitWakesOnRequeueAndLastSettlement)
{
    sim::CampaignSpec spec = smallSpec();
    spec.fleet_workers = 1;
    auto created = sim::fleet::FleetDispatch::create(spec);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    sim::fleet::FleetDispatch& dispatch = *created.value();
    dispatch.start();

    // Hold every unit in flight, so the queue is empty but the
    // campaign is not settled.
    std::vector<std::uint64_t> held;
    for (std::uint64_t u = 0; dispatch.waitClaim(u, {});)
        held.push_back(u);
    ASSERT_GE(held.size(), 2u);
    ASSERT_FALSE(dispatch.allSettled());

    using std::chrono::steady_clock;
    const auto waitLong = [&](std::uint64_t& u, bool& claimed,
                              double& seconds) {
        const auto start = steady_clock::now();
        claimed = dispatch.waitClaim(u, std::chrono::seconds(60));
        seconds = std::chrono::duration<double>(steady_clock::now() -
                                                start)
                      .count();
    };

    // A requeue wakes the waiter with exactly that unit.
    std::uint64_t got = ~std::uint64_t{0};
    bool claimed = false;
    double waited = 0.0;
    std::thread waiter([&] { waitLong(got, claimed, waited); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    dispatch.requeueUnit(held[0], "test");
    waiter.join();
    EXPECT_TRUE(claimed);
    EXPECT_EQ(got, held[0]);
    EXPECT_LT(waited, 30.0);

    // The last settlement wakes the waiter with nothing to claim.
    waiter = std::thread([&] { waitLong(got, claimed, waited); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto now = sim::fleet::FleetDispatch::Clock::now();
    for (std::uint64_t u : held) {
        sim::fleet::WorkerMessage result;
        result.unit = u;
        EXPECT_TRUE(dispatch.completeUnit(result, now, now));
    }
    waiter.join();
    EXPECT_FALSE(claimed);
    EXPECT_LT(waited, 30.0);
    EXPECT_TRUE(dispatch.allSettled());
    dispatch.finalize();
}

TEST(FleetDispatch, UnitErrorForAnotherUnitIsRefused)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    spec.fleet_workers = 1;
    auto created = sim::fleet::FleetDispatch::create(spec);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    sim::fleet::FleetDispatch& dispatch = *created.value();
    dispatch.start();
    dispatch.registerHost(0, "local-0");
    std::uint64_t u = 0;
    ASSERT_TRUE(dispatch.waitClaim(u, {}));
    ASSERT_FALSE(dispatch.allSettled());

    // A unit_error is only ever about the unit in flight: one naming
    // a unit far outside the plan, or another unit of it, is refused.
    // Validation is const, so it cannot fail a cell or settle
    // anything.
    WorkerMessage rogue;
    rogue.kind = WorkerMessage::Kind::unit_error;
    rogue.worker = 0;
    rogue.unit = std::uint64_t{1} << 40;
    rogue.message = "not my unit";
    const Status refused = dispatch.validateUnitError(rogue, u);
    EXPECT_EQ(refused.code(), ErrorCode::dataLoss);
    rogue.unit = u + 1;
    EXPECT_FALSE(dispatch.validateUnitError(rogue, u).ok());
    rogue.unit = u;
    EXPECT_TRUE(dispatch.validateUnitError(rogue, u).ok());
    EXPECT_FALSE(dispatch.allSettled());

    // The liaison's invalid-line path: requeue the unit in flight and
    // retire the host. The campaign then finishes without the refused
    // line ever failing a cell.
    dispatch.requeueUnit(u, refused.toString());
    dispatch.closeHost(0, 0, true);
    dispatch.noteWorkerLost();
    dispatch.finishInProcess();
    const sim::CampaignResult r = dispatch.finalize();
    EXPECT_EQ(r.fleet.requeues, 1u);
    EXPECT_EQ(r.fleet.workers_lost, 1u);
    ASSERT_EQ(r.fleet.worker_records.size(), 1u);
    EXPECT_TRUE(r.fleet.worker_records[0].lost);
    EXPECT_TRUE(r.errors.empty());
    expectCellsIdentical(reference, r);
}

TEST(FleetDispatch, DuplicateResultsDoNotDoubleCountHostCredit)
{
    // Drive the dispatcher directly: absorb one telemetry line, then
    // deliver the same result twice. The host's credit and shipped
    // counters must ride the settled-exactly-once gate — the replay
    // is discarded and counted, never double-merged.
    sim::CampaignSpec spec = smallSpec();
    spec.fleet_workers = 1;
    auto created = sim::fleet::FleetDispatch::create(spec);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    sim::fleet::FleetDispatch& dispatch = *created.value();
    dispatch.start();
    dispatch.registerHost(0, "alpha");

    std::uint64_t u = 0;
    ASSERT_TRUE(dispatch.waitClaim(u, {}));

    WorkerMessage telemetry;
    telemetry.kind = WorkerMessage::Kind::telemetry;
    telemetry.worker = 0;
    telemetry.unit = u;
    telemetry.counters = {{"campaign.trials", 100}};
    dispatch.absorbTelemetry(telemetry);

    WorkerMessage result;
    result.kind = WorkerMessage::Kind::result;
    result.worker = 0;
    result.unit = u;
    result.busy_us = 1000;
    const auto now = sim::fleet::FleetDispatch::Clock::now();
    EXPECT_TRUE(dispatch.completeUnit(result, now, now));
    // The replayed delivery must be discarded and counted.
    EXPECT_FALSE(dispatch.completeUnit(result, now, now));

    dispatch.finishInProcess();
    const sim::CampaignResult r = dispatch.finalize();
    EXPECT_EQ(r.fleet.duplicate_results, 1u);
    ASSERT_EQ(r.fleet.worker_records.size(), 1u);
    EXPECT_EQ(r.fleet.worker_records[0].label, "alpha");
    EXPECT_EQ(r.fleet.worker_records[0].units, 1u); // credited once
    // The credit and the shipped counter delta surface once under the
    // host label.
    const obs::CounterValue* units =
        r.metrics.findCounter("fleet.host.alpha.units");
    const obs::CounterValue* trials =
        r.metrics.findCounter("fleet.host.alpha.campaign.trials");
    ASSERT_NE(units, nullptr);
    ASSERT_NE(trials, nullptr);
    EXPECT_EQ(units->value, 1u);
    EXPECT_EQ(trials->value, 100u);
}

TEST(Fleet, ResumesFromInterruptedFleetCheckpoint)
{
    const std::string path = tempPath("gpuecc_fleet_resume_ck.json");
    std::remove(path.c_str());

    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Interrupt a checkpointed fleet run partway through...
    sim::ChaosSpec chaos;
    chaos.kill_after = 30;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0;
    const sim::CampaignResult interrupted =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();
    clearInterrupt(); // the simulated SIGTERM latches until cleared
    ASSERT_TRUE(interrupted.interrupted);
    // The drain is graceful: every worker got a shutdown line and
    // exited cleanly, none was retired as lost.
    ASSERT_EQ(interrupted.fleet.worker_records.size(), 2u);
    for (const obs::FleetWorkerRecord& w :
         interrupted.fleet.worker_records) {
        EXPECT_FALSE(w.lost) << w.label;
        EXPECT_EQ(w.exit_code, 0) << w.label;
    }

    // ...then resume it in fleet mode and demand bit-identity.
    spec.resume = true;
    const sim::CampaignResult resumed =
        sim::CampaignRunner(spec).run();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GT(resumed.resumed_shards, 0u);
    expectCellsIdentical(reference, resumed);
    std::remove(path.c_str());
}

TEST(Fleet, InterruptWithAHungWorkerStillDrains)
{
    if (!subprocessSupported())
        GTEST_SKIP() << "fork/pipe unavailable";
    const std::string path = tempPath("gpuecc_fleet_hung_drain_ck.json");
    std::remove(path.c_str());

    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Worker 1 hangs on its first unit with its heartbeats silenced,
    // and the interrupt lands once worker 0 has settled 40 of the 92
    // tasks — late enough that worker 1 surely holds a unit (the
    // first units are tiny exhaustive ones), and long before the hung
    // unit could settle. The drain must not wait on the hung worker:
    // silent past the heartbeat budget, it is killed and reaped.
    sim::ChaosSpec chaos;
    chaos.fleet_stall_worker = 1;
    chaos.fleet_stall_after = 0;
    chaos.kill_after = 40;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    spec.fleet_heartbeat_timeout_s = 2.0;
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0;
    const auto start = std::chrono::steady_clock::now();
    const sim::CampaignResult interrupted =
        sim::CampaignRunner(spec).run();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    sim::clearChaosSpec();
    clearInterrupt(); // the simulated SIGTERM latches until cleared
    ASSERT_TRUE(interrupted.interrupted);
    EXPECT_LT(seconds, 15.0);

    ASSERT_EQ(interrupted.fleet.worker_records.size(), 2u);
    const obs::FleetWorkerRecord& drained =
        interrupted.fleet.worker_records[0];
    const obs::FleetWorkerRecord& hung =
        interrupted.fleet.worker_records[1];
    EXPECT_FALSE(drained.lost);
    EXPECT_EQ(drained.exit_code, 0);
    EXPECT_TRUE(hung.lost);
    EXPECT_EQ(hung.exit_code, 128 + SIGKILL);
    EXPECT_GE(interrupted.fleet.heartbeat_expiries, 1u);
    EXPECT_GE(interrupted.fleet.requeues, 1u);
    ASSERT_GT(hung.pid, 0);
    const int signalled = ::kill(static_cast<pid_t>(hung.pid), 0);
    const int kill_errno = errno;
    EXPECT_EQ(signalled, -1);
    EXPECT_EQ(kill_errno, ESRCH) << "the hung worker was not reaped";

    // An in-process run sized for the fleet's 2 x 4 unit slots cuts
    // the same plan, so it resumes the fleet's checkpoint.
    spec.fleet_workers = 0;
    spec.threads = 8;
    spec.resume = true;
    const sim::CampaignResult resumed = sim::CampaignRunner(spec).run();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GT(resumed.resumed_shards, 0u);
    expectCellsIdentical(reference, resumed);
    std::remove(path.c_str());
}

TEST(Fleet, WorkerSpansLieInsideTheFleetEvaluateSpan)
{
    if (!subprocessSupported())
        GTEST_SKIP() << "fork/pipe unavailable";
    const std::string path = tempPath("gpuecc_fleet_trace.json");
    std::remove(path.c_str());

    // Forked workers stamp their unit spans on the trace clock they
    // inherited, so the spans replayed onto the host tracks must fall
    // inside the parent's evaluate-fleet span (1 ms slack).
    sim::CampaignSpec spec = smallSpec();
    spec.fleet_workers = 2;
    obs::startTrace(path);
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();
    ASSERT_TRUE(obs::stopTraceAndWrite().ok());
    ASSERT_TRUE(r.errors.empty());

    const auto text = sim::loadTextFile(path);
    ASSERT_TRUE(text.ok()) << text.status().toString();
    const auto doc = sim::parseJson(text.value());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const sim::JsonValue* events = doc.value().find("traceEvents");
    ASSERT_NE(events, nullptr);

    const auto str = [](const sim::JsonValue& e, const char* key) {
        const sim::JsonValue* v = e.find(key);
        return v != nullptr && v->isString() ? v->asString().value()
                                             : std::string();
    };
    const auto num = [](const sim::JsonValue& e, const char* key) {
        const sim::JsonValue* v = e.find(key);
        return v != nullptr ? v->asUint64().value() : std::uint64_t{0};
    };
    std::vector<std::uint64_t> host_tids;
    std::uint64_t eval_begin = 0;
    std::uint64_t eval_end = 0;
    for (const sim::JsonValue& e : events->elements()) {
        const sim::JsonValue* args = e.find("args");
        if (str(e, "ph") == "M" && args != nullptr &&
            str(*args, "name").rfind("host local-", 0) == 0)
            host_tids.push_back(num(e, "tid"));
        if (str(e, "ph") == "X" && str(e, "name") == "evaluate-fleet") {
            eval_begin = num(e, "ts");
            eval_end = eval_begin + num(e, "dur");
        }
    }
    EXPECT_EQ(host_tids.size(), 2u);
    ASSERT_GT(eval_end, 0u) << "no evaluate-fleet span";

    constexpr std::uint64_t kSlackUs = 1000;
    std::size_t checked = 0;
    for (const sim::JsonValue& e : events->elements()) {
        if (str(e, "ph") != "X" || str(e, "cat") != "fleet" ||
            std::find(host_tids.begin(), host_tids.end(),
                      num(e, "tid")) == host_tids.end())
            continue;
        const std::uint64_t begin = num(e, "ts");
        const std::uint64_t end = begin + num(e, "dur");
        EXPECT_GE(begin + kSlackUs, eval_begin) << str(e, "name");
        EXPECT_LE(end, eval_end + kSlackUs) << str(e, "name");
        ++checked;
    }
    EXPECT_EQ(checked, r.fleet.units);
    std::remove(path.c_str());
}

} // namespace
} // namespace gpuecc
