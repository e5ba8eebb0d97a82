/** @file Tests for the simulated DRAM microbenchmark and campaign. */

#include <gtest/gtest.h>

#include <chrono>

#include "beam/campaign.hpp"
#include "beam/microbenchmark.hpp"
#include "ecc/registry.hpp"
#include "faultsim/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/campaign_core.hpp"

namespace gpuecc {
namespace beam {
namespace {

TEST(Microbenchmark, NoFaultsNoLog)
{
    hbm2::Device dev((hbm2::Geometry(1)));
    EventGenerator events(EventConfig{}, hbm2::Geometry(1), Rng(1));
    Microbenchmark mb((MicrobenchConfig()));
    Rng rng(2);
    double t = 0.0;
    const auto log = mb.run(dev, events, 0.0, t, 0, rng);
    EXPECT_TRUE(log.empty());
    // Clock advanced by (1 write + 20 reads) x 10 phases x pass time.
    EXPECT_NEAR(t, 10 * 21 * MicrobenchConfig{}.pass_seconds, 1e-9);
}

TEST(Microbenchmark, WeakCellLoggedInAlternatePhases)
{
    hbm2::Device dev(hbm2::Geometry(1), 16.0);
    dev.addWeakCell({123, 5, 4.0, true});
    EventGenerator events(EventConfig{}, hbm2::Geometry(1), Rng(3));
    MicrobenchConfig cfg;
    cfg.pattern = hbm2::DataPattern::zeros;
    cfg.write_phases = 4;
    cfg.reads_per_write = 3;
    Microbenchmark mb(cfg);
    Rng rng(4);
    double t = 0.0;
    const auto log = mb.run(dev, events, 0.0, t, 0, rng);

    // Zeros pattern: the 1->0 weak cell only errs in inverted phases
    // (1 and 3), on every read pass.
    ASSERT_EQ(log.size(), 2u * 3u);
    for (const LogRecord& r : log) {
        EXPECT_EQ(r.entry, 123u);
        EXPECT_EQ(r.write_phase % 2, 1);
        EXPECT_EQ(r.mask.get(5), 1);
    }
}

TEST(Microbenchmark, EventsAppearInLog)
{
    hbm2::Device dev((hbm2::Geometry(1)));
    EventGenerator events(EventConfig{}, hbm2::Geometry(1), Rng(5));
    Microbenchmark mb((MicrobenchConfig()));
    Rng rng(6);
    double t = 0.0;
    // Huge event rate: every pass injects somethng.
    const auto log = mb.run(dev, events, 1000.0, t, 7, rng);
    EXPECT_FALSE(log.empty());
    for (const LogRecord& r : log)
        EXPECT_EQ(r.run, 7);
}

TEST(Campaign, AccumulationCurveIsMonotonic)
{
    CampaignConfig cfg;
    cfg.runs = 40;
    Campaign campaign(cfg);
    campaign.runInBeam();
    const auto& acc = campaign.accumulation();
    ASSERT_EQ(acc.size(), 40u);
    for (std::size_t i = 1; i < acc.size(); ++i) {
        EXPECT_GT(acc[i].fluence_n_cm2, acc[i - 1].fluence_n_cm2);
        EXPECT_GE(acc[i].visible_weak_cells,
                  acc[i - 1].visible_weak_cells);
    }
}

TEST(Campaign, SoakDrivesRefreshSweepToPaperValues)
{
    CampaignConfig cfg;
    cfg.runs = 0;
    Campaign campaign(cfg);
    campaign.soak(1e11); // exhaust the leaky pool
    const auto sweep = campaign.refreshSweep({8.0, 16.0, 48.0});
    ASSERT_EQ(sweep.size(), 3u);
    // Figure 3a: ~294 at 8 ms, ~1000 at 16 ms, ~2656 at 48 ms. (The
    // positive-truncated retention distribution expects ~257 at 8 ms
    // for the same mu/sigma; binomial noise adds ~+-35.)
    EXPECT_NEAR(static_cast<double>(sweep[0].second), 260, 60);
    EXPECT_NEAR(static_cast<double>(sweep[1].second), 1000, 110);
    EXPECT_NEAR(static_cast<double>(sweep[2].second), 2690, 40);
}

TEST(Campaign, FluenceAccounting)
{
    CampaignConfig cfg;
    cfg.runs = 5;
    Campaign campaign(cfg);
    campaign.runInBeam();
    const double run_seconds =
        cfg.micro.pass_seconds *
        cfg.micro.write_phases * (1 + cfg.micro.reads_per_write);
    EXPECT_NEAR(campaign.fluence(),
                5 * cfg.beam.flux_n_cm2_s * run_seconds, 1e-3);
}

/**
 * The accounting the runner adds per shard task (a disabled trace
 * span, the retry report, one shard_micros observation and the core's
 * complete step: scheme clock, progress countdown, chaos kill-point)
 * must cost under 2% of one shard kernel invocation — the campaign
 * hot path stays measurement-grade with telemetry compiled in.
 */
TEST(Telemetry, ShardInstrumentationOverheadBelowTwoPercent)
{
    const auto scheme = makeScheme("duet");
    const GoldenEntry golden = makeGolden(*scheme, 0x5EED);
    const auto shards =
        planShards(ErrorPattern::oneBeat, 1 << 16, 1 << 16);
    ASSERT_FALSE(shards.empty());

    const auto kernel_start = std::chrono::steady_clock::now();
    const OutcomeCounts counts =
        evaluateShard(*scheme, golden, 0x5EED, shards[0]);
    const double kernel_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - kernel_start)
            .count();
    ASSERT_GT(counts.trials, 0u);

    // One plan task per repetition, so each is completed once.
    constexpr int kReps = 20000;
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBeat};
    spec.samples = std::uint64_t{kReps} * kStreamBlockSamples;
    spec.chunk = kStreamBlockSamples;
    auto created = sim::CampaignCore::create(
        spec, sim::CampaignCore::Driver::inProcess, 1, 1);
    ASSERT_TRUE(created.ok()) << created.status().toString();
    sim::CampaignCore& core = *created.value();
    ASSERT_EQ(core.plan().tasks.size(), std::uint64_t{kReps});
    core.start();
    obs::HistogramValue micros("overhead_test.micros",
                               {100, 1000, 10000});
    ASSERT_FALSE(obs::traceEnabled());

    const auto bundle_start = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) {
        obs::TraceSpan span("shard", "shard"); // disabled: no-op
        core.addRetries(0);
        micros.observe(1234);
        core.complete({{static_cast<std::uint64_t>(i), counts}}, 1234,
                      bundle_start, bundle_start);
    }
    const double per_shard_bundle =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - bundle_start)
            .count() /
        kReps;
    EXPECT_EQ(core.finish()
                  .metrics.findCounter("campaign.shards_completed")
                  ->value,
              std::uint64_t{kReps});

    EXPECT_LT(per_shard_bundle, 0.02 * kernel_seconds)
        << "telemetry bundle " << per_shard_bundle * 1e9
        << " ns vs shard kernel " << kernel_seconds * 1e6 << " us";
}

} // namespace
} // namespace beam
} // namespace gpuecc
