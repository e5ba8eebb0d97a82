/** @file Tests for the chaos harness and campaign failure paths. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/interrupt.hpp"
#include "common/status.hpp"
#include "faultsim/shard.hpp"
#include "sim/campaign.hpp"
#include "sim/chaos.hpp"

namespace gpuecc {
namespace {

/** Every test leaves the process-global harness disarmed. */
class ChaosTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        sim::clearChaosSpec();
        clearInterrupt();
    }
    void TearDown() override
    {
        sim::clearChaosSpec();
        clearInterrupt();
    }
};

sim::CampaignSpec
smallSpec()
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "trio"};
    spec.patterns = {ErrorPattern::oneBit, ErrorPattern::oneBeat};
    spec.samples = 20000;
    spec.chunk = 1024; // many shard tasks
    spec.threads = 2;
    return spec;
}

void
expectSameCells(const sim::CampaignResult& a,
                const sim::CampaignResult& b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].scheme_id, b.cells[i].scheme_id);
        EXPECT_EQ(a.cells[i].pattern, b.cells[i].pattern);
        EXPECT_EQ(a.cells[i].counts.trials, b.cells[i].counts.trials);
        EXPECT_EQ(a.cells[i].counts.dce, b.cells[i].counts.dce);
        EXPECT_EQ(a.cells[i].counts.due, b.cells[i].counts.due);
        EXPECT_EQ(a.cells[i].counts.sdc, b.cells[i].counts.sdc);
    }
}

TEST_F(ChaosTest, ParseFullSpec)
{
    const auto r = sim::parseChaosSpec(
        "task_fault=7,task_fault_count=2,kill_after=40,ckpt_fail=1");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().task_fault, 7);
    EXPECT_EQ(r.value().task_fault_count, 2);
    EXPECT_EQ(r.value().kill_after, 40);
    EXPECT_EQ(r.value().ckpt_fail, 1);
}

TEST_F(ChaosTest, ParseEmptyAndPartialSpecs)
{
    const auto empty = sim::parseChaosSpec("");
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty.value().task_fault, -1);
    EXPECT_EQ(empty.value().kill_after, -1);
    EXPECT_EQ(empty.value().ckpt_fail, 0);

    const auto partial = sim::parseChaosSpec("kill_after=3");
    ASSERT_TRUE(partial.ok());
    EXPECT_EQ(partial.value().kill_after, 3);
    EXPECT_EQ(partial.value().task_fault, -1);
}

TEST_F(ChaosTest, ParseRejectsBadSpecs)
{
    for (const char* bad :
         {"bogus_key=1", "task_fault", "task_fault=xyz",
          "kill_after=", "task_fault=1,oops=2"}) {
        const auto r = sim::parseChaosSpec(bad);
        ASSERT_FALSE(r.ok()) << bad;
        EXPECT_EQ(r.status().code(), ErrorCode::invalidArgument) << bad;
    }
}

TEST_F(ChaosTest, HooksAreInertWhenDisarmed)
{
    EXPECT_FALSE(sim::chaosActive());
    EXPECT_NO_THROW(sim::chaosOnTaskAttempt(0));
    sim::chaosOnTaskDone(1000000);
    EXPECT_FALSE(interruptRequested());
    EXPECT_TRUE(sim::chaosOnCheckpointWrite().ok());
}

TEST_F(ChaosTest, TransientTaskFaultIsRetriedInvisibly)
{
    const sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult base = sim::CampaignRunner(spec).run();

    sim::ChaosSpec chaos;
    chaos.task_fault = 5;
    chaos.task_fault_count = 1; // first attempt throws, retry succeeds
    sim::setChaosSpec(chaos);
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();

    EXPECT_TRUE(r.errors.empty());
    EXPECT_FALSE(r.interrupted);
    expectSameCells(base, r);
    // Only the faulted task retried, not the rest of its shard group.
    const obs::CounterValue* retries =
        r.metrics.findCounter("campaign.shard_retries");
    ASSERT_NE(retries, nullptr);
    EXPECT_EQ(retries->value, 1u);
}

TEST_F(ChaosTest, PersistentTaskFaultDropsOnlyThatScheme)
{
    const sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult base = sim::CampaignRunner(spec).run();

    // Task j of every scheme forms shard group j, evaluated together:
    // fault the group's first member (duet) and then its second
    // (trio, one scheme's worth of tasks further on).
    const std::uint64_t per_scheme =
        planShards(ErrorPattern::oneBit, spec.samples, spec.chunk)
            .size() +
        planShards(ErrorPattern::oneBeat, spec.samples, spec.chunk)
            .size();
    ASSERT_EQ(per_scheme, 56u);
    const struct
    {
        std::int64_t task;
        const char* dropped;
        const char* kept;
    } cases[] = {{0, "duet", "trio"},
                 {static_cast<std::int64_t>(per_scheme), "trio",
                  "duet"}};
    for (const auto& c : cases) {
        SCOPED_TRACE(c.dropped);
        sim::ChaosSpec chaos;
        chaos.task_fault = c.task;
        chaos.task_fault_count = 2; // the retry fails too
        sim::setChaosSpec(chaos);
        const sim::CampaignResult r = sim::CampaignRunner(spec).run();
        sim::clearChaosSpec();

        EXPECT_FALSE(r.hasScheme(c.dropped));
        EXPECT_TRUE(r.hasScheme(c.kept));
        ASSERT_EQ(r.errors.size(), 1u);
        EXPECT_EQ(r.errors[0].scheme_id, c.dropped);
        EXPECT_NE(r.errors[0].message.find("unavailable"),
                  std::string::npos);

        // The surviving scheme's tallies are untouched by the
        // turbulence.
        for (ErrorPattern p : spec.patterns) {
            EXPECT_EQ(r.counts(c.kept, p).sdc,
                      base.counts(c.kept, p).sdc);
            EXPECT_EQ(r.counts(c.kept, p).trials,
                      base.counts(c.kept, p).trials);
        }
    }
}

/**
 * Every checkpoint write of @p r failed, and its <driver>.* counters
 * say so: the writer thread's metric shard reached the result.
 */
void
expectEveryCheckpointWriteFailed(const sim::CampaignResult& r,
                                 const std::string& driver)
{
    const obs::CounterValue* failures =
        r.metrics.findCounter(driver + ".checkpoint_failures");
    const obs::CounterValue* flushes =
        r.metrics.findCounter(driver + ".checkpoint_flushes");
    ASSERT_NE(failures, nullptr);
    ASSERT_NE(flushes, nullptr);
    EXPECT_GE(failures->value, 1u);
    EXPECT_EQ(flushes->value, 0u);
}

TEST_F(ChaosTest, CheckpointWriteFailureDegradesGracefully)
{
    const std::string path =
        ::testing::TempDir() + "gpuecc_chaos_ckpt_fail.json";
    std::remove(path.c_str());

    sim::CampaignSpec spec = smallSpec();
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0; // flush after every task

    sim::ChaosSpec chaos;
    chaos.ckpt_fail = 1000000; // every write fails
    sim::setChaosSpec(chaos);
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();

    // The campaign completes with correct tallies despite never being
    // able to persist progress.
    EXPECT_FALSE(r.interrupted);
    EXPECT_TRUE(r.errors.empty());
    expectEveryCheckpointWriteFailed(r, "campaign");

    // The fleet dispatcher shares the writer, and its fleet.* pair.
    spec.fleet_workers = 2;
    const sim::CampaignResult fleet = sim::CampaignRunner(spec).run();
    EXPECT_FALSE(fleet.interrupted);
    EXPECT_TRUE(fleet.errors.empty());
    expectEveryCheckpointWriteFailed(fleet, "fleet");

    sim::clearChaosSpec();
    spec.fleet_workers = 0;
    const sim::CampaignResult base = sim::CampaignRunner(spec).run();
    expectSameCells(base, r);
    expectSameCells(base, fleet);
    std::remove(path.c_str());
}

TEST_F(ChaosTest, KillPointInterruptsCleanly)
{
    const std::string path =
        ::testing::TempDir() + "gpuecc_chaos_kill.json";
    std::remove(path.c_str());

    sim::CampaignSpec spec = smallSpec();
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0;

    sim::ChaosSpec chaos;
    chaos.kill_after = 3;
    sim::setChaosSpec(chaos);
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();

    EXPECT_TRUE(r.interrupted);
    EXPECT_GT(r.shards, 3u); // it stopped before the end

    // The final flush left a loadable checkpoint behind.
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    std::remove(path.c_str());
}

TEST_F(ChaosTest, RequestInterruptStopsACampaignWithoutCheckpoint)
{
    // An interrupt with no checkpoint path still stops cleanly; the
    // result is just marked partial.
    sim::CampaignSpec spec = smallSpec();
    requestInterrupt();
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();
    EXPECT_TRUE(r.interrupted);
}

} // namespace
} // namespace gpuecc
