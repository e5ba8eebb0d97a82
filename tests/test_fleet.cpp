/** @file Tests for the fleet dispatcher and its wire protocol. */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/interrupt.hpp"
#include "fleet/dispatch.hpp"
#include "fleet/protocol.hpp"
#include "sim/campaign.hpp"
#include "sim/chaos.hpp"

namespace gpuecc {
namespace {

using sim::fleet::FleetConfig;
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

TEST(FleetProtocol, ConfigLineRoundTrips)
{
    FleetConfig cfg;
    cfg.worker = 3;
    cfg.scheme_ids = {"duet", "trio"};
    cfg.patterns = {ErrorPattern::oneBit, ErrorPattern::wholeEntry};
    cfg.samples = 123456;
    cfg.seed = 0x5EED;
    cfg.chunk = 4096;
    cfg.fingerprint = "schemes=duet,trio;...";
    cfg.codec_backend = "compiled";

    const std::string line = sim::fleet::encodeConfigLine(cfg);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    const auto decoded = sim::fleet::decodeConfigLine(line);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const FleetConfig& d = decoded.value();
    EXPECT_EQ(d.worker, cfg.worker);
    EXPECT_EQ(d.scheme_ids, cfg.scheme_ids);
    ASSERT_EQ(d.patterns.size(), cfg.patterns.size());
    EXPECT_EQ(d.patterns[0], cfg.patterns[0]);
    EXPECT_EQ(d.patterns[1], cfg.patterns[1]);
    EXPECT_EQ(d.samples, cfg.samples);
    EXPECT_EQ(d.seed, cfg.seed);
    EXPECT_EQ(d.chunk, cfg.chunk);
    EXPECT_EQ(d.fingerprint, cfg.fingerprint);
    EXPECT_EQ(d.codec_backend, cfg.codec_backend);
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
    EXPECT_FALSE(sim::fleet::decodeConfigLine("not json\n").ok());
    EXPECT_FALSE(sim::fleet::decodeConfigLine("{}\n").ok());
    EXPECT_FALSE(sim::fleet::decodeServerLine("[1,2]\n").ok());
    EXPECT_FALSE(sim::fleet::decodeWorkerLine("{\"type\":\"bogus\"}\n")
                     .ok());
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

    // Worker 1 self-kills when it starts its second unit; its
    // in-flight unit must be re-queued and finished by worker 0.
    sim::ChaosSpec chaos;
    chaos.fleet_exit_worker = 1;
    chaos.fleet_exit_after = 1;
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

    // ...then resume it in fleet mode and demand bit-identity.
    spec.resume = true;
    const sim::CampaignResult resumed =
        sim::CampaignRunner(spec).run();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GT(resumed.resumed_shards, 0u);
    expectCellsIdentical(reference, resumed);
    std::remove(path.c_str());
}

} // namespace
} // namespace gpuecc
