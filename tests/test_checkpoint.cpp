/** @file Tests for the JSON parser and checkpoint/resume machinery. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/interrupt.hpp"
#include "common/status.hpp"
#include "sim/campaign.hpp"
#include "sim/campaign_core.hpp"
#include "sim/chaos.hpp"
#include "sim/checkpoint.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"

namespace gpuecc {
namespace {

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------- JSON

TEST(JsonParser, ScalarsAndContainers)
{
    const auto doc = sim::parseJson(
        "{\"a\": 1, \"b\": [true, false, null], \"c\": \"x\","
        " \"d\": -2.5}");
    ASSERT_TRUE(doc.ok());
    const sim::JsonValue& v = doc.value();
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->asUint64().value(), 1u);
    ASSERT_TRUE(v.find("b")->isArray());
    ASSERT_EQ(v.find("b")->elements().size(), 3u);
    EXPECT_TRUE(v.find("b")->elements()[0].asBool().value());
    EXPECT_FALSE(v.find("b")->elements()[1].asBool().value());
    EXPECT_TRUE(v.find("b")->elements()[2].isNull());
    EXPECT_EQ(v.find("c")->asString().value(), "x");
    EXPECT_DOUBLE_EQ(v.find("d")->asDouble().value(), -2.5);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_FALSE(v.get("missing").ok());
}

TEST(JsonParser, Uint64RoundTripsExactly)
{
    // 2^64 - 1 is not representable in a double; the raw-token design
    // must keep every digit.
    const auto doc = sim::parseJson("{\"n\": 18446744073709551615}");
    ASSERT_TRUE(doc.ok());
    const auto n = doc.value().find("n")->asUint64();
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), UINT64_MAX);
}

TEST(JsonParser, Uint64RejectsOutOfRangeAndNonIntegral)
{
    // One past 2^64 - 1: the checkpoint loader's width check.
    const auto over = sim::parseJson("18446744073709551616");
    ASSERT_TRUE(over.ok());
    EXPECT_FALSE(over.value().asUint64().ok());

    const auto neg = sim::parseJson("-1");
    ASSERT_TRUE(neg.ok());
    EXPECT_FALSE(neg.value().asUint64().ok());

    const auto frac = sim::parseJson("1.5");
    ASSERT_TRUE(frac.ok());
    EXPECT_FALSE(frac.value().asUint64().ok());
    EXPECT_TRUE(frac.value().asDouble().ok());
}

TEST(JsonParser, StringEscapes)
{
    const auto doc =
        sim::parseJson("\"a\\\"b\\\\c\\n\\t\\u0041\\uD83D\\uDE00\"");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().asString().value(),
              std::string("a\"b\\c\n\tA\xF0\x9F\x98\x80"));
}

TEST(JsonParser, WriterOutputRoundTrips)
{
    sim::JsonWriter w;
    w.beginObject();
    w.kv("text", std::string("quote\" slash\\ nl\n"));
    w.key("nums").beginArray().value(std::uint64_t{1234567890123456789ull})
        .value(2.5).endArray();
    w.endObject();
    const auto doc = sim::parseJson(w.str());
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().find("text")->asString().value(),
              "quote\" slash\\ nl\n");
    EXPECT_EQ(doc.value().find("nums")->elements()[0].asUint64().value(),
              1234567890123456789ull);
}

TEST(JsonParser, EveryEscapedByteRoundTrips)
{
    // Every byte the shared escaper rewrites (quote, backslash, the
    // short escapes, a carriage return and another control byte as
    // \u00XX), plus one it passes through.
    const std::string awkward = "q\"b\\r\rn\nt\tc\x01 end";
    sim::JsonWriter w;
    w.beginObject().kv("text", awkward).endObject();
    EXPECT_NE(w.str().find("\\u000d"), std::string::npos) << w.str();
    const auto doc = sim::parseJson(w.str());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    EXPECT_EQ(doc.value().find("text")->asString().value(), awkward);
}

TEST(JsonParser, StructuredErrors)
{
    for (const char* bad :
         {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
          "\"bad \\q escape\"", "{\"a\":1} trailing", "- 1"}) {
        const auto doc = sim::parseJson(bad);
        ASSERT_FALSE(doc.ok()) << '"' << bad << '"';
        EXPECT_EQ(doc.status().code(), ErrorCode::dataLoss) << bad;
    }
}

TEST(JsonParser, DepthLimitIsDataLossNotStackOverflow)
{
    std::string deep;
    for (int i = 0; i < 2000; ++i)
        deep += '[';
    const auto doc = sim::parseJson(deep);
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), ErrorCode::dataLoss);
}

// --------------------------------------------------------- fingerprint

TEST(CheckpointFingerprint, SensitiveToEveryPlanInput)
{
    const std::vector<std::string> ids{"duet", "trio"};
    const std::vector<ErrorPattern> pats{ErrorPattern::oneBit};
    const std::string base = sim::campaignFingerprint(
        ids, pats, 1000, 0x5EED, 64, "compiled", 12);

    EXPECT_EQ(base, sim::campaignFingerprint(ids, pats, 1000, 0x5EED,
                                             64, "compiled", 12));
    EXPECT_NE(base, sim::campaignFingerprint({"duet"}, pats, 1000,
                                             0x5EED, 64, "compiled", 12));
    EXPECT_NE(base,
              sim::campaignFingerprint(
                  ids, {ErrorPattern::onePin}, 1000, 0x5EED, 64,
                  "compiled", 12));
    EXPECT_NE(base, sim::campaignFingerprint(ids, pats, 1001, 0x5EED,
                                             64, "compiled", 12));
    EXPECT_NE(base, sim::campaignFingerprint(ids, pats, 1000, 0x5EEE,
                                             64, "compiled", 12));
    EXPECT_NE(base, sim::campaignFingerprint(ids, pats, 1000, 0x5EED,
                                             128, "compiled", 12));
    EXPECT_NE(base, sim::campaignFingerprint(ids, pats, 1000, 0x5EED,
                                             64, "reference", 12));
    EXPECT_NE(base, sim::campaignFingerprint(ids, pats, 1000, 0x5EED,
                                             64, "compiled", 13));
}

TEST(CheckpointFingerprint, NamesTheSamplerVersion)
{
    // Two builds whose samplers draw different masks from one seed
    // must never share a fingerprint, so the stream version is a plan
    // input like the seed.
    const std::string fp = sim::campaignFingerprint(
        {"duet"}, {ErrorPattern::oneBeat}, 1000, 0x5EED, 1024,
        "compiled", 1);
    EXPECT_NE(fp.find(";sampler=2"), std::string::npos) << fp;
}

// --------------------------------------------------------- save / load

sim::CampaignCheckpoint
sampleCheckpoint()
{
    sim::CampaignCheckpoint ck;
    ck.fingerprint = "v1;test";
    for (std::uint64_t i : {0ull, 3ull, 7ull}) {
        sim::CheckpointEntry e;
        e.task = i;
        e.counts.trials = 100 + i;
        e.counts.dce = 90;
        e.counts.due = 8;
        e.counts.sdc = 2 + i;
        e.counts.exhaustive = (i == 0);
        ck.done.push_back(e);
    }
    return ck;
}

TEST(Checkpoint, SaveLoadRoundTrip)
{
    const std::string path = tempPath("gpuecc_ck_roundtrip.json");
    std::remove(path.c_str());

    const sim::CampaignCheckpoint ck = sampleCheckpoint();
    ASSERT_TRUE(sim::saveCheckpoint(path, ck).ok());

    const auto loaded = sim::loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().fingerprint, ck.fingerprint);
    ASSERT_EQ(loaded.value().done.size(), ck.done.size());
    for (std::size_t i = 0; i < ck.done.size(); ++i) {
        EXPECT_EQ(loaded.value().done[i].task, ck.done[i].task);
        EXPECT_EQ(loaded.value().done[i].counts.trials,
                  ck.done[i].counts.trials);
        EXPECT_EQ(loaded.value().done[i].counts.dce,
                  ck.done[i].counts.dce);
        EXPECT_EQ(loaded.value().done[i].counts.due,
                  ck.done[i].counts.due);
        EXPECT_EQ(loaded.value().done[i].counts.sdc,
                  ck.done[i].counts.sdc);
        EXPECT_EQ(loaded.value().done[i].counts.exhaustive,
                  ck.done[i].counts.exhaustive);
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsNotFound)
{
    const auto r =
        sim::loadCheckpoint(tempPath("gpuecc_ck_never_written.json"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::notFound);
}

TEST(Checkpoint, CorruptFilesAreDataLoss)
{
    const std::string path = tempPath("gpuecc_ck_corrupt.json");
    const struct
    {
        const char* label;
        std::string text;
    } cases[] = {
        {"malformed", "{\"version\": 1,"},
        {"wrong version",
         "{\"version\": 2, \"fingerprint\": \"f\", \"tasks\": []}"},
        {"missing fingerprint", "{\"version\": 1, \"tasks\": []}"},
        {"tuple too short",
         "{\"version\": 1, \"fingerprint\": \"f\","
         " \"tasks\": [[0, 10, 5, 5]]}"},
        {"counter overflows 64 bits",
         "{\"version\": 1, \"fingerprint\": \"f\","
         " \"tasks\": [[0, 18446744073709551616, 0, 0, 0, false]]}"},
        {"counts do not sum",
         "{\"version\": 1, \"fingerprint\": \"f\","
         " \"tasks\": [[0, 10, 5, 5, 5, false]]}"},
        {"duplicate task index",
         "{\"version\": 1, \"fingerprint\": \"f\","
         " \"tasks\": [[0, 1, 1, 0, 0, false],"
         " [0, 1, 1, 0, 0, false]]}"},
    };
    for (const auto& c : cases) {
        ASSERT_TRUE(sim::saveTextFile(path, c.text).ok());
        const auto r = sim::loadCheckpoint(path);
        ASSERT_FALSE(r.ok()) << c.label;
        EXPECT_EQ(r.status().code(), ErrorCode::dataLoss) << c.label;
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, FailedWriteLeavesPriorFileIntact)
{
    const std::string path = tempPath("gpuecc_ck_atomic.json");
    std::remove(path.c_str());

    sim::CampaignCheckpoint ck = sampleCheckpoint();
    ASSERT_TRUE(sim::saveCheckpoint(path, ck).ok());

    // Arm the chaos hook so the next write fails; the first
    // checkpoint must survive unmodified.
    sim::ChaosSpec chaos;
    chaos.ckpt_fail = 1;
    sim::setChaosSpec(chaos);
    ck.done[0].counts.sdc += 1;
    ck.done[0].counts.dce -= 1;
    const Status failed = sim::saveCheckpoint(path, ck);
    sim::clearChaosSpec();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), ErrorCode::ioError);

    const auto loaded = sim::loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().done[0].counts.sdc,
              sampleCheckpoint().done[0].counts.sdc);
    std::remove(path.c_str());
}

// ------------------------------------------------------------- resume

class ResumeTest : public ::testing::Test
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

TEST_F(ResumeTest, KilledThenResumedRunIsBitIdentical)
{
    // The acceptance scenario: interrupt a checkpointed campaign at a
    // kill-point, resume it (on a different thread count), and demand
    // tallies bit-identical to a run that was never interrupted.
    for (int resume_threads : {1, 4}) {
        const std::string path = tempPath(
            "gpuecc_ck_resume_" + std::to_string(resume_threads) +
            ".json");
        std::remove(path.c_str());

        sim::CampaignSpec spec;
        spec.scheme_ids = {"duet", "trio"};
        spec.samples = 30000;
        spec.chunk = 1024;
        spec.threads = 2;
        const sim::CampaignResult base =
            sim::CampaignRunner(spec).run();

        sim::ChaosSpec chaos;
        chaos.kill_after = 4;
        sim::setChaosSpec(chaos);
        spec.checkpoint_path = path;
        spec.checkpoint_interval_s = 0;
        const sim::CampaignResult killed =
            sim::CampaignRunner(spec).run();
        ASSERT_TRUE(killed.interrupted);

        sim::clearChaosSpec();
        clearInterrupt();
        spec.resume = true;
        spec.threads = resume_threads;
        const sim::CampaignResult resumed =
            sim::CampaignRunner(spec).run();
        EXPECT_FALSE(resumed.interrupted);
        EXPECT_GT(resumed.resumed_shards, 0u);
        EXPECT_LT(resumed.resumed_shards, resumed.shards);

        ASSERT_EQ(resumed.cells.size(), base.cells.size());
        for (std::size_t i = 0; i < base.cells.size(); ++i) {
            const OutcomeCounts& a = base.cells[i].counts;
            const OutcomeCounts& b = resumed.cells[i].counts;
            EXPECT_EQ(b.trials, a.trials);
            EXPECT_EQ(b.dce, a.dce);
            EXPECT_EQ(b.due, a.due);
            EXPECT_EQ(b.sdc, a.sdc);
            EXPECT_EQ(b.exhaustive, a.exhaustive);
        }
        // The CSV artifact has no timing column, so the whole report
        // must be byte-identical.
        EXPECT_EQ(sim::campaignCsv(resumed), sim::campaignCsv(base));
        std::remove(path.c_str());
    }

    // Partly restored shard groups: a fleet run dispatches its units
    // scheme by scheme, so its checkpoint holds the first scheme's
    // tasks ahead of the other's. Resumed in-process, each group
    // evaluates only its missing members.
    const std::string path = tempPath("gpuecc_ck_resume_fleet.json");
    std::remove(path.c_str());
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "trio"};
    spec.samples = 30000;
    spec.chunk = 1024; // one block: both drivers plan the same chunk
    spec.threads = 2;
    const sim::CampaignResult base = sim::CampaignRunner(spec).run();

    sim::ChaosSpec chaos;
    chaos.kill_after = 4;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0;
    const sim::CampaignResult killed = sim::CampaignRunner(spec).run();
    ASSERT_TRUE(killed.interrupted);

    sim::clearChaosSpec();
    clearInterrupt();
    spec.fleet_workers = 0;
    spec.resume = true;
    const sim::CampaignResult resumed = sim::CampaignRunner(spec).run();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GT(resumed.resumed_shards, 0u);
    EXPECT_LT(resumed.resumed_shards, resumed.shards);
    EXPECT_EQ(sim::campaignCsv(resumed), sim::campaignCsv(base));
    std::remove(path.c_str());
}

TEST_F(ResumeTest, ResumeOfCompleteCheckpointRecomputesNothing)
{
    const std::string path = tempPath("gpuecc_ck_complete.json");
    std::remove(path.c_str());

    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBeat};
    spec.samples = 10000;
    spec.chunk = 1024;
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0;
    const sim::CampaignResult first = sim::CampaignRunner(spec).run();

    spec.resume = true;
    const sim::CampaignResult again = sim::CampaignRunner(spec).run();
    EXPECT_EQ(again.resumed_shards, again.shards);
    EXPECT_EQ(sim::campaignCsv(again), sim::campaignCsv(first));
    std::remove(path.c_str());
}

TEST_F(ResumeTest, ResumeWithMissingCheckpointStartsFresh)
{
    const std::string path = tempPath("gpuecc_ck_missing.json");
    std::remove(path.c_str());

    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBit};
    spec.samples = 1000;
    spec.checkpoint_path = path;
    spec.resume = true;
    const auto r = sim::CampaignRunner(spec).tryRun();
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().resumed_shards, 0u);
    std::remove(path.c_str());
}

TEST_F(ResumeTest, FingerprintMismatchIsFailedPrecondition)
{
    const std::string path = tempPath("gpuecc_ck_mismatch.json");
    std::remove(path.c_str());

    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBeat};
    spec.samples = 10000;
    spec.chunk = 1024;
    spec.checkpoint_path = path;
    ASSERT_TRUE(sim::CampaignRunner(spec).tryRun().ok());

    // Same file, different campaign: the seed changed.
    spec.resume = true;
    spec.seed += 1;
    const auto r = sim::CampaignRunner(spec).tryRun();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::failedPrecondition);
    std::remove(path.c_str());
}

TEST_F(ResumeTest, CheckpointOfAnOlderSamplerIsRefused)
{
    // A checkpoint as a sampler-1 build wrote it: the same plan, its
    // fingerprint without the sampler term. Its tallies come from
    // other masks, so both drivers must refuse it whole.
    const std::string path = tempPath("gpuecc_ck_sampler1.json");
    for (const int fleet_workers : {0, 2}) {
        std::remove(path.c_str());
        sim::CampaignSpec spec;
        spec.scheme_ids = {"duet"};
        spec.patterns = {ErrorPattern::oneBeat};
        spec.samples = 10000;
        spec.chunk = 1024;
        spec.fleet_workers = fleet_workers;
        spec.checkpoint_path = path;
        spec.checkpoint_interval_s = 0;
        ASSERT_TRUE(sim::CampaignRunner(spec).tryRun().ok());

        Result<sim::CampaignCheckpoint> loaded = sim::loadCheckpoint(path);
        ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
        sim::CampaignCheckpoint stale = loaded.value();
        const std::string ours = stale.fingerprint;
        const std::string term = ";sampler=2";
        const std::size_t at = ours.find(term);
        ASSERT_NE(at, std::string::npos) << ours;
        stale.fingerprint.erase(at, term.size());
        ASSERT_TRUE(sim::saveCheckpoint(path, stale).ok());
        const Result<std::string> before = sim::loadTextFile(path);
        ASSERT_TRUE(before.ok());

        spec.resume = true;
        const auto r = sim::CampaignRunner(spec).tryRun();
        ASSERT_FALSE(r.ok()) << "fleet_workers " << fleet_workers;
        EXPECT_EQ(r.status().code(), ErrorCode::failedPrecondition);
        const std::string& message = r.status().message();
        EXPECT_NE(message.find("written by a different campaign"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("theirs: " + stale.fingerprint + "\n"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("ours:   " + ours), std::string::npos)
            << message;
        // Nothing restored, nothing written: the refused file is as the
        // older build left it.
        const Result<std::string> after = sim::loadTextFile(path);
        ASSERT_TRUE(after.ok());
        EXPECT_EQ(after.value(), before.value())
            << "fleet_workers " << fleet_workers;
    }
    std::remove(path.c_str());
}

TEST_F(ResumeTest, CheckpointWriterNeverTearsOrShrinksTheFile)
{
    // The writer thread rewrites the file while shards settle; a
    // reader polling it throughout must only ever see complete files
    // of this campaign, each a superset of the one before. In-process:
    // a fleet run would fork its workers with the reader alive.
    const std::string path = tempPath("gpuecc_ck_writer.json");
    std::remove(path.c_str());
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "trio"};
    spec.patterns = {ErrorPattern::oneBeat, ErrorPattern::wholeEntry};
    spec.samples = 100000;
    spec.chunk = 1024;
    spec.threads = 2;
    const auto planned = sim::CampaignCore::create(
        spec, sim::CampaignCore::Driver::inProcess, spec.threads,
        static_cast<std::uint64_t>(spec.threads));
    ASSERT_TRUE(planned.ok());
    const std::string fingerprint =
        planned.value()->plan().fingerprint();
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0;

    // One load: of this campaign, and holding every task of the
    // load before it with the same tallies.
    std::vector<std::string> problems;
    std::map<std::uint64_t, OutcomeCounts> previous;
    const auto check = [&](const Result<sim::CampaignCheckpoint>& loaded) {
        if (!loaded.ok()) {
            problems.push_back(loaded.status().toString());
            return;
        }
        if (loaded.value().fingerprint != fingerprint)
            problems.push_back("foreign fingerprint");
        std::map<std::uint64_t, OutcomeCounts> now;
        for (const sim::CheckpointEntry& e : loaded.value().done)
            now[e.task] = e.counts;
        for (const auto& [task, counts] : previous) {
            const auto it = now.find(task);
            if (it == now.end() || it->second.trials != counts.trials ||
                it->second.dce != counts.dce ||
                it->second.due != counts.due ||
                it->second.sdc != counts.sdc ||
                it->second.exhaustive != counts.exhaustive)
                problems.push_back("task " + std::to_string(task) +
                                   " lost or changed");
        }
        previous = std::move(now);
    };
    std::atomic<bool> running{true};
    std::thread reader([&] {
        while (running.load()) {
            const auto loaded = sim::loadCheckpoint(path);
            if (loaded.status().code() != ErrorCode::notFound)
                check(loaded);
        }
    });
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();
    running.store(false);
    reader.join();

    // The file left behind: the last in the series, holding every task.
    check(sim::loadCheckpoint(path));
    EXPECT_TRUE(problems.empty()) << problems.front();
    EXPECT_EQ(previous.size(), r.shards);
    const obs::CounterValue* flushes =
        r.metrics.findCounter("campaign.checkpoint_flushes");
    ASSERT_NE(flushes, nullptr);
    EXPECT_GE(flushes->value, 1u);
    EXPECT_LE(flushes->value, r.shards + 1);
    std::remove(path.c_str());
}

/**
 * A started core writing checkpoints to @p path continuously, with
 * task 0 of its four completed: the writer has news.
 */
std::unique_ptr<sim::CampaignCore>
coreWithOneTaskCompleted(const std::string& path)
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBeat};
    spec.samples = 4096;
    spec.chunk = 1024;
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0;
    auto created = sim::CampaignCore::create(
        spec, sim::CampaignCore::Driver::inProcess, 1, 1);
    if (!created.ok())
        return nullptr;
    std::unique_ptr<sim::CampaignCore> core = std::move(created).value();
    core->start();
    auto arena = std::make_unique<ShardBatchArena>();
    std::uint64_t retries = 0;
    const auto counts = core->plan().evaluateTask(0, *arena, retries);
    if (!counts.ok())
        return nullptr;
    const auto now = std::chrono::steady_clock::now();
    core->complete({{0, counts.value()}}, 0, now, now);
    return core;
}

TEST_F(ResumeTest, CheckpointWriterJoinsWhenTheCoreDiesUnfinished)
{
    // A driver that throws between start() and finish() destroys its
    // core with the writer running: no std::terminate, and whatever
    // the writer managed to write still loads.
    const std::string path = tempPath("gpuecc_ck_unfinished.json");
    std::remove(path.c_str());
    std::unique_ptr<sim::CampaignCore> core =
        coreWithOneTaskCompleted(path);
    ASSERT_NE(core, nullptr);
    core.reset();

    const auto loaded = sim::loadCheckpoint(path);
    if (loaded.status().code() != ErrorCode::notFound) {
        ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
        ASSERT_EQ(loaded.value().done.size(), 1u);
        EXPECT_EQ(loaded.value().done[0].task, 0u);
    }
    std::remove(path.c_str());
}

TEST_F(ResumeTest, CheckpointWriterCountsReachTheResult)
{
    // The writer counts its writes on its own thread's metric shard,
    // and finish() joins it before the metrics delta: the result holds
    // the writer's write and the final flush.
    const std::string path = tempPath("gpuecc_ck_counted.json");
    std::remove(path.c_str());
    std::unique_ptr<sim::CampaignCore> core =
        coreWithOneTaskCompleted(path);
    ASSERT_NE(core, nullptr);
    for (int i = 0; i < 1000 && !sim::loadCheckpoint(path).ok(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const sim::CampaignResult r = core->finish();
    const obs::CounterValue* flushes =
        r.metrics.findCounter("campaign.checkpoint_flushes");
    ASSERT_NE(flushes, nullptr);
    EXPECT_EQ(flushes->value, 2u);
    std::remove(path.c_str());
}

TEST_F(ResumeTest, CorruptCheckpointIsAStructuredError)
{
    const std::string path = tempPath("gpuecc_ck_garbage.json");
    ASSERT_TRUE(sim::saveTextFile(path, "not json at all").ok());

    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBit};
    spec.samples = 1000;
    spec.checkpoint_path = path;
    spec.resume = true;
    const auto r = sim::CampaignRunner(spec).tryRun();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::dataLoss);
    std::remove(path.c_str());
}

} // namespace
} // namespace gpuecc
