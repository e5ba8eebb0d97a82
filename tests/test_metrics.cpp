/**
 * @file
 * Telemetry-layer tests: metric values (bucket boundaries,
 * per-worker merge determinism, campaign counters — also under the
 * chaos harness), manifest JSON round-trips with exact 64-bit
 * counters, trace-file structure, progress formatting and sampling,
 * thread-pool telemetry, and checkpoint manifest embedding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"
#include "sim/campaign_core.hpp"
#include "sim/chaos.hpp"
#include "sim/checkpoint.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"

using namespace gpuecc;

namespace {

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

} // namespace

TEST(Metrics, HistogramBucketBoundariesAreInclusiveUpper)
{
    obs::HistogramValue h("test.bounds", {10, 100, 1000});
    ASSERT_EQ(h.counts.size(), 4u);
    EXPECT_EQ(h.total(), 0u);

    // Bucket i holds v <= bounds[i] (and > bounds[i-1]); the last
    // bucket overflows.
    for (const std::uint64_t v : {0ull, 10ull})
        h.observe(v);
    for (const std::uint64_t v : {11ull, 100ull})
        h.observe(v);
    h.observe(1000);
    for (const std::uint64_t v : {1001ull, 123456789ull})
        h.observe(v);

    EXPECT_EQ(h.counts[0], 2u);
    EXPECT_EQ(h.counts[1], 2u);
    EXPECT_EQ(h.counts[2], 1u);
    EXPECT_EQ(h.counts[3], 2u);
    EXPECT_EQ(h.total(), 7u);
}

TEST(Metrics, ShardMergeIsDeterministicAcrossThreadCounts)
{
    // The runner's scheme: each pool worker counts into its own
    // WorkerArena slot, and the slots merge in worker order after the
    // pool joins. The same work over 1, 2 and 5 threads must merge to
    // identical totals: per-counter and per-bucket addition are
    // associative and commutative.
    struct Slot
    {
        std::uint64_t counter = 0;
        obs::HistogramValue hist{"test.merge_hist", {50}};
    };
    for (const int threads : {1, 2, 5}) {
        ThreadPool pool(threads);
        WorkerArena<Slot> slots(pool);
        pool.parallelFor(100, [&](std::uint64_t i) {
            Slot& slot = slots.local();
            slot.counter += i;
            slot.hist.observe(i);
        });
        std::uint64_t counter = 0;
        obs::HistogramValue hist("test.merge_hist", {50});
        for (int w = 0; w < slots.size(); ++w) {
            counter += slots.at(w).counter;
            hist.merge(slots.at(w).hist);
        }
        EXPECT_EQ(counter, 4950u) << threads << " threads";
        EXPECT_EQ(hist.counts[0], 51u) << threads << " threads";
        EXPECT_EQ(hist.counts[1], 49u) << threads << " threads";
    }
}

TEST(Metrics, CampaignCountersMatchResultUnderChaos)
{
    // A chaos-injected retry must not disturb the merged counters:
    // the campaign.* deltas agree with the result at every thread
    // count even when a task fails once and is re-run.
    sim::ChaosSpec chaos;
    chaos.task_fault = 0;
    chaos.task_fault_count = 1;

    std::vector<std::uint64_t> trial_counts;
    for (const int threads : {1, 4}) {
        sim::setChaosSpec(chaos);
        sim::CampaignSpec spec;
        spec.scheme_ids = {"duet"};
        spec.patterns = {ErrorPattern::oneBit, ErrorPattern::oneBeat};
        spec.samples = 4000;
        spec.threads = threads;
        const sim::CampaignResult r = sim::CampaignRunner(spec).run();
        sim::clearChaosSpec();

        const obs::CounterValue* shards =
            r.metrics.findCounter("campaign.shards_completed");
        const obs::CounterValue* trials =
            r.metrics.findCounter("campaign.trials");
        const obs::CounterValue* retries =
            r.metrics.findCounter("campaign.shard_retries");
        ASSERT_NE(shards, nullptr);
        ASSERT_NE(trials, nullptr);
        ASSERT_NE(retries, nullptr);
        EXPECT_EQ(shards->value, r.shards);
        EXPECT_EQ(trials->value, r.totalTrials());
        EXPECT_EQ(retries->value, 1u);
        const obs::HistogramValue* micros =
            r.metrics.findHistogram("campaign.shard_micros");
        ASSERT_NE(micros, nullptr);
        EXPECT_EQ(micros->total(), r.shards);
        trial_counts.push_back(trials->value);
    }
    EXPECT_EQ(trial_counts[0], trial_counts[1]);
}

TEST(Metrics, CampaignResultCarriesTimingAndPoolTelemetry)
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "trio"};
    spec.patterns = {ErrorPattern::oneBit};
    spec.samples = 2000;
    spec.threads = 2;
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();

    EXPECT_EQ(r.pool.threads, 2);
    // The pool runs shard groups, one task per shard of every scheme:
    // two schemes, so half as many pool tasks as plan tasks.
    EXPECT_EQ(r.pool.tasks_executed, r.shards / 2);
    EXPECT_GT(r.pool.wall_seconds, 0.0);
    EXPECT_GE(r.pool.utilization(), 0.0);
    EXPECT_LE(r.pool.utilization(), 1.0);
    EXPECT_GE(r.cpu_seconds, 0.0);

    ASSERT_EQ(r.scheme_timings.size(), 2u);
    std::uint64_t trials = 0;
    for (const obs::SchemeTiming& t : r.scheme_timings) {
        EXPECT_GT(t.shards, 0u);
        trials += t.trials;
    }
    EXPECT_EQ(trials, r.totalTrials());
}

TEST(Manifest, JsonRoundTripPreservesExact64BitValues)
{
    obs::RunManifest m;
    m.tool = "test_metrics";
    m.build = obs::buildInfo();
    m.threads = 8;
    m.codec_backend = "compiled";
    m.chaos = "task_fault=3";
    // Full-range values: the JSON layer must not route these through
    // a double.
    m.samples = 18446744073709551615ull;
    m.seed = 9007199254740993ull; // 2^53 + 1: breaks IEEE doubles
    m.chunk = 65536;
    m.schemes = {"duet", "trio"};
    m.traced = true;

    sim::JsonWriter w;
    sim::writeRunManifest(w, m);
    const auto doc = sim::parseJson(w.str());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const sim::JsonValue& root = doc.value();

    EXPECT_EQ(root.find("tool")->asString().value(), "test_metrics");
    EXPECT_EQ(root.find("samples")->asUint64().value(),
              18446744073709551615ull);
    EXPECT_EQ(root.find("seed")->asUint64().value(),
              9007199254740993ull);
    EXPECT_EQ(root.find("chunk")->asUint64().value(), 65536u);
    EXPECT_EQ(root.find("threads")->asUint64().value(), 8u);
    EXPECT_EQ(root.find("codec_backend")->asString().value(),
              "compiled");
    EXPECT_EQ(root.find("chaos")->asString().value(), "task_fault=3");
    ASSERT_NE(root.find("schemes"), nullptr);
    ASSERT_EQ(root.find("schemes")->elements().size(), 2u);
    EXPECT_EQ(root.find("schemes")->elements()[1].asString().value(),
              "trio");
    EXPECT_TRUE(root.find("traced")->asBool().value());
    EXPECT_GT(root.find("hardware_threads")->asUint64().value(), 0u);
}

TEST(Manifest, CampaignJsonTimingCountersAreExact)
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBit};
    spec.samples = 1000;
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();

    const auto doc = sim::parseJson(sim::campaignJson(r));
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const sim::JsonValue* timing = doc.value().find("timing");
    ASSERT_NE(timing, nullptr);
    const sim::JsonValue* counters = timing->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("campaign.shards_completed")
                  ->asUint64()
                  .value(),
              r.shards);
    EXPECT_EQ(counters->find("campaign.trials")->asUint64().value(),
              r.totalTrials());
    const sim::JsonValue* manifest = doc.value().find("manifest");
    ASSERT_NE(manifest, nullptr);
    EXPECT_EQ(manifest->find("seed")->asUint64().value(),
              r.spec.seed);
}

TEST(Trace, FileIsValidJsonWithSpansAndTrackNames)
{
    const std::string path = tempPath("gpuecc_trace_test.json");
    std::remove(path.c_str());

    obs::startTrace(path);
    ASSERT_TRUE(obs::traceEnabled());
    {
        obs::TraceSpan outer("outer", "test");
        obs::TraceSpan inner("inner", "test");
        inner.arg("detail", std::string("abc"));
        inner.arg("count", std::uint64_t{42});
        EXPECT_TRUE(outer.active());
    }
    obs::setTrackName(1000, "scheme duet");
    obs::emitSpan("synthetic", "scheme", obs::traceNowUs(), 5, "",
                  1000);
    ASSERT_TRUE(obs::stopTraceAndWrite().ok());
    EXPECT_FALSE(obs::traceEnabled());

    const auto text = sim::loadTextFile(path);
    ASSERT_TRUE(text.ok());
    const auto doc = sim::parseJson(text.value());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const sim::JsonValue* events = doc.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool saw_outer = false, saw_inner_args = false, saw_track = false;
    for (const sim::JsonValue& e : events->elements()) {
        const sim::JsonValue* name = e.find("name");
        if (name == nullptr)
            continue;
        const std::string n = name->asString().value();
        if (n == "outer") {
            saw_outer = true;
            EXPECT_EQ(e.find("ph")->asString().value(), "X");
            EXPECT_TRUE(e.find("dur")->asUint64().ok());
        }
        if (n == "inner" && e.find("args") != nullptr) {
            saw_inner_args =
                e.find("args")->find("count")->asUint64().value() ==
                42u;
        }
        if (n == "thread_name" && e.find("args") != nullptr &&
            e.find("args")->find("name") != nullptr) {
            saw_track |= e.find("args")
                             ->find("name")
                             ->asString()
                             .value() == "scheme duet";
        }
    }
    EXPECT_TRUE(saw_outer);
    EXPECT_TRUE(saw_inner_args);
    EXPECT_TRUE(saw_track);
    std::remove(path.c_str());
}

TEST(Trace, SpansAreNoOpsWhenDisabled)
{
    ASSERT_FALSE(obs::traceEnabled());
    obs::TraceSpan span("ignored", "test");
    EXPECT_FALSE(span.active());
    obs::emitSpan("ignored", "test", 0, 1);
}

TEST(Trace, CampaignWithTraceIsBitIdenticalToWithout)
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBit, ErrorPattern::oneBeat};
    spec.samples = 3000;
    spec.threads = 2;
    const sim::CampaignResult plain = sim::CampaignRunner(spec).run();
    const std::string csv_plain = sim::campaignCsv(plain);

    const std::string path = tempPath("gpuecc_trace_campaign.json");
    obs::startTrace(path);
    const sim::CampaignResult traced =
        sim::CampaignRunner(spec).run();
    ASSERT_TRUE(obs::stopTraceAndWrite().ok());

    // Telemetry must never perturb determinism: identical tallies,
    // byte-identical CSV.
    ASSERT_EQ(plain.cells.size(), traced.cells.size());
    for (std::size_t i = 0; i < plain.cells.size(); ++i) {
        EXPECT_EQ(plain.cells[i].counts.sdc,
                  traced.cells[i].counts.sdc);
        EXPECT_EQ(plain.cells[i].counts.trials,
                  traced.cells[i].counts.trials);
    }
    EXPECT_EQ(csv_plain, sim::campaignCsv(traced));

    // And the trace actually holds campaign + shard spans.
    const auto doc =
        sim::parseJson(sim::loadTextFile(path).value());
    ASSERT_TRUE(doc.ok());
    bool saw_campaign = false, saw_shard = false;
    for (const sim::JsonValue& e :
         doc.value().find("traceEvents")->elements()) {
        const sim::JsonValue* cat = e.find("cat");
        if (cat == nullptr)
            continue;
        const std::string c = cat->asString().value();
        saw_campaign |= c == "campaign";
        saw_shard |= c == "shard";
    }
    EXPECT_TRUE(saw_campaign);
    EXPECT_TRUE(saw_shard);
    std::remove(path.c_str());
}

TEST(Progress, FormatLineShowsCountsRateAndEta)
{
    obs::ProgressSample s;
    s.totals = {40, 4};
    s.shards_done = 10;
    s.trials_done = 250000;
    s.schemes_done = 1;
    s.trials_per_second = 8.6e6;
    s.eta_seconds = 12.0;
    const std::string line = obs::formatProgressLine(s);
    EXPECT_NE(line.find("25.0%"), std::string::npos);
    EXPECT_NE(line.find("10/40"), std::string::npos);
    EXPECT_NE(line.find("1/4"), std::string::npos);
    EXPECT_NE(line.find("8.60M trials/s"), std::string::npos);
    EXPECT_NE(line.find("eta 12s"), std::string::npos);

    s.eta_seconds = -1.0;
    EXPECT_NE(obs::formatProgressLine(s).find("eta --"),
              std::string::npos);

    // The percent is shard-based (enumerable patterns make per-shard
    // trial counts unknowable up front) and never exceeds 100%.
    s.shards_done = 40;
    s.trials_done = 99999999;
    EXPECT_NE(obs::formatProgressLine(s).find("100.0%"),
              std::string::npos);
}

TEST(Progress, OffModeIsInertAndSafe)
{
    int samples = 0;
    obs::ProgressReporter reporter(obs::ProgressMode::off, [&] {
        ++samples;
        return obs::ProgressSample{};
    });
    EXPECT_FALSE(reporter.enabled());
    reporter.stop();
    reporter.stop(); // idempotent
    EXPECT_EQ(samples, 0); // no render thread, nothing sampled
}

TEST(Progress, SamplesTheCampaignClocks)
{
    // The progress line keeps no counts: it reads the core's scheme
    // clocks, which complete, skip and fail update. Settled is
    // planned minus pending, trials come from the clocks, and a
    // scheme is done once nothing of it is pending. A second thread
    // samples throughout, as the render thread does; the run's
    // counters come from the same clocks.
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "trio"};
    spec.patterns = {ErrorPattern::oneBeat};
    spec.samples = 4096;
    spec.chunk = 1024;
    auto created = sim::CampaignCore::create(
        spec, sim::CampaignCore::Driver::inProcess, 1, 1);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    sim::CampaignCore& core = *created.value();
    core.start();
    // Scheme-major: tasks 0-3 are duet's, 4-7 trio's.
    const std::uint64_t tasks = core.plan().tasks.size();
    ASSERT_EQ(tasks, 8u);
    obs::ProgressSample s = core.progress();
    EXPECT_EQ(s.totals.shards, tasks);
    EXPECT_EQ(s.totals.schemes, 2u);
    EXPECT_EQ(s.shards_done, 0u);
    EXPECT_EQ(s.trials_done, 0u);
    EXPECT_EQ(s.schemes_done, 0u);

    std::atomic<bool> done{false};
    std::thread sampler([&] {
        while (!done.load()) {
            const obs::ProgressSample now = core.progress();
            EXPECT_LE(now.shards_done, tasks);
            EXPECT_LE(now.schemes_done, 2u);
        }
    });
    OutcomeCounts counts;
    counts.trials = 1024;
    counts.dce = 1024;
    const auto now = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < 4; ++i)
        core.complete({{i, counts}}, 10, now, now);
    // trio: one task completes, then its cell fails with three left.
    core.complete({{4, counts}}, 10, now, now);
    core.fail(core.plan().tasks[5].cell, 3, "test failure");
    done.store(true);
    sampler.join();

    s = core.progress();
    EXPECT_EQ(s.shards_done, tasks);
    EXPECT_EQ(s.trials_done, 5u * 1024);
    EXPECT_EQ(s.schemes_done, 2u);

    const sim::CampaignResult r = core.finish();
    const auto counter = [&](const std::string& name) {
        const obs::CounterValue* c = r.metrics.findCounter(name);
        return c != nullptr ? c->value : ~std::uint64_t{0};
    };
    EXPECT_EQ(counter("campaign.shards_completed"), 5u);
    EXPECT_EQ(counter("campaign.trials"), 5u * 1024);
    EXPECT_EQ(counter("campaign.schemes_dropped"), 1u);
    EXPECT_EQ(counter("campaign.shard_retries"), 0u);
}

TEST(PoolTelemetry, StatsCountTasksAndWallTime)
{
    ThreadPool pool(3);
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(200, [&](std::uint64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.tasks_executed, 200u);
    EXPECT_GT(stats.wall_seconds, 0.0);
    EXPECT_GE(stats.busy_seconds, 0.0);
    EXPECT_EQ(sum.load(), 19900u);
}

TEST(PoolTelemetry, UtilizationIsClamped)
{
    obs::PoolTelemetry t;
    t.threads = 2;
    t.wall_seconds = 1.0;
    t.busy_seconds = 5.0; // over-report: must clamp, not exceed 1
    EXPECT_EQ(t.utilization(), 1.0);
    EXPECT_EQ(t.idleFraction(), 0.0);
    t.busy_seconds = 1.0;
    EXPECT_NEAR(t.utilization(), 0.5, 1e-12);
}

TEST(CheckpointManifest, RoundTripsAndToleratesLegacyFiles)
{
    const std::string path = tempPath("gpuecc_ck_manifest.json");
    std::remove(path.c_str());

    sim::CampaignCheckpoint ck;
    ck.fingerprint = "v1;test";
    ck.manifest = {{"threads", "4"}, {"codec_backend", "compiled"}};
    sim::CheckpointEntry e;
    e.task = 0;
    e.counts.trials = 10;
    e.counts.dce = 10;
    ck.done.push_back(e);
    ASSERT_TRUE(sim::saveCheckpoint(path, ck).ok());

    const auto loaded = sim::loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    ASSERT_EQ(loaded.value().manifest.size(), 2u);
    EXPECT_EQ(loaded.value().manifest[0].first, "threads");
    EXPECT_EQ(loaded.value().manifest[0].second, "4");

    // A pre-telemetry checkpoint (no manifest key) still loads.
    ASSERT_TRUE(
        sim::saveTextFile(
            path, "{\"version\":1,\"fingerprint\":\"v1;test\","
                  "\"tasks\":[[0,10,10,0,0,false]]}")
            .ok());
    const auto legacy = sim::loadCheckpoint(path);
    ASSERT_TRUE(legacy.ok()) << legacy.status().toString();
    EXPECT_TRUE(legacy.value().manifest.empty());
    EXPECT_EQ(legacy.value().done.size(), 1u);
    std::remove(path.c_str());
}

TEST(CheckpointManifest, CampaignWritesManifestIntoCheckpoint)
{
    const std::string path = tempPath("gpuecc_ck_campaign.json");
    std::remove(path.c_str());

    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBit};
    spec.samples = 1000;
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0.0;
    sim::CampaignRunner(spec).run();

    const auto loaded = sim::loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    bool saw_backend = false;
    for (const auto& [key, value] : loaded.value().manifest)
        saw_backend |= key == "codec_backend" && !value.empty();
    EXPECT_TRUE(saw_backend);
    std::remove(path.c_str());
}
