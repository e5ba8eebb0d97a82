/** @file Tests for the deterministic campaign engine. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "ecc/registry.hpp"
#include "faultsim/shard.hpp"
#include "faultsim/weighted.hpp"
#include "sim/campaign.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"

namespace gpuecc {
namespace {

TEST(ShardPlan, CoversEnumerableOuterSpaceExactly)
{
    for (ErrorPattern p :
         {ErrorPattern::oneBit, ErrorPattern::onePin,
          ErrorPattern::oneByte, ErrorPattern::twoBits,
          ErrorPattern::threeBits}) {
        const auto shards = planShards(p, 12345);
        ASSERT_FALSE(shards.empty());
        std::uint64_t expect_begin = 0;
        for (const Shard& s : shards) {
            EXPECT_EQ(s.pattern, p);
            EXPECT_EQ(s.begin, expect_begin);
            EXPECT_GT(s.end, s.begin);
            expect_begin = s.end;
        }
        EXPECT_EQ(expect_begin, enumerationOuterSize(p));
    }
}

TEST(ShardPlan, CoversSampleRangeExactly)
{
    for (std::uint64_t samples : {1ull, 1000ull, 65536ull, 200001ull}) {
        const auto shards =
            planShards(ErrorPattern::oneBeat, samples, 65536);
        std::uint64_t covered = 0, expect_begin = 0;
        for (const Shard& s : shards) {
            EXPECT_EQ(s.begin, expect_begin);
            expect_begin = s.end;
            covered += s.end - s.begin;
        }
        EXPECT_EQ(covered, samples);
    }
    EXPECT_TRUE(planShards(ErrorPattern::wholeEntry, 0).empty());
}

TEST(ShardPlan, IndependentOfNothingButInputs)
{
    const auto a = planShards(ErrorPattern::wholeEntry, 100000, 4096);
    const auto b = planShards(ErrorPattern::wholeEntry, 100000, 4096);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin);
        EXPECT_EQ(a[i].end, b[i].end);
        EXPECT_EQ(a[i].stream, b[i].stream);
    }
}

TEST(ShardPlan, SampledStreamsUniqueAcrossPatterns)
{
    // Stream ids only drive sampled shards (enumerable shards never
    // draw random masks); those must be unique across the whole plan.
    std::set<std::uint64_t> streams;
    std::size_t total = 0;
    for (ErrorPattern p :
         {ErrorPattern::oneBeat, ErrorPattern::wholeEntry}) {
        for (const Shard& s : planShards(p, 500000, 4096)) {
            streams.insert(s.stream);
            ++total;
        }
    }
    EXPECT_EQ(streams.size(), total);
}

TEST(OutcomeCountsMerge, AssociativeAndCommutative)
{
    const auto trio = makeScheme("trio");
    const GoldenEntry golden = makeGolden(*trio, 0x5EED);
    const auto shards = planShards(ErrorPattern::oneBeat, 30000, 4096);
    ASSERT_GE(shards.size(), 3u);
    std::vector<OutcomeCounts> parts;
    for (const Shard& s : shards)
        parts.push_back(evaluateShard(*trio, golden, 0x5EED, s));

    OutcomeCounts fwd;
    for (const OutcomeCounts& p : parts)
        fwd.merge(p);
    OutcomeCounts rev;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it)
        rev.merge(*it);
    OutcomeCounts grouped, left, right;
    for (std::size_t i = 0; i < parts.size(); ++i)
        (i % 2 ? left : right).merge(parts[i]);
    grouped.merge(left).merge(right);

    for (const OutcomeCounts& m : {fwd, rev, grouped}) {
        EXPECT_EQ(m.trials, 30000u);
        EXPECT_EQ(m.trials, fwd.trials);
        EXPECT_EQ(m.dce, fwd.dce);
        EXPECT_EQ(m.due, fwd.due);
        EXPECT_EQ(m.sdc, fwd.sdc);
        EXPECT_FALSE(m.exhaustive);
    }
}

TEST(OutcomeCountsMerge, ExhaustiveOnlyWhenAllShardsAre)
{
    OutcomeCounts ex;
    ex.trials = 10;
    ex.exhaustive = true;
    OutcomeCounts sampled;
    sampled.trials = 10;

    OutcomeCounts acc;
    acc.merge(ex);
    EXPECT_TRUE(acc.exhaustive);
    acc.merge(sampled);
    EXPECT_FALSE(acc.exhaustive);
}

TEST(OutcomeCountsMergeDeathTest, PanicsOnCounterOverflow)
{
    OutcomeCounts a, b;
    a.trials = UINT64_MAX - 5;
    b.trials = 10;
    EXPECT_DEATH(a.merge(b), "overflow");
}

TEST(Campaign, BitIdenticalAcrossThreadCounts)
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "trio"};
    spec.samples = 20000;
    spec.chunk = 1024; // many shards, so work actually interleaves
    spec.threads = 1;
    const sim::CampaignResult base = sim::CampaignRunner(spec).run();

    for (int threads : {2, 8}) {
        spec.threads = threads;
        const sim::CampaignResult r = sim::CampaignRunner(spec).run();
        ASSERT_EQ(r.cells.size(), base.cells.size());
        for (std::size_t i = 0; i < base.cells.size(); ++i) {
            const OutcomeCounts& a = base.cells[i].counts;
            const OutcomeCounts& b = r.cells[i].counts;
            EXPECT_EQ(b.trials, a.trials) << "threads=" << threads;
            EXPECT_EQ(b.dce, a.dce) << "threads=" << threads;
            EXPECT_EQ(b.due, a.due) << "threads=" << threads;
            EXPECT_EQ(b.sdc, a.sdc) << "threads=" << threads;
            EXPECT_EQ(b.exhaustive, a.exhaustive);
        }
    }
}

TEST(Campaign, BitIdenticalAcrossChunkSizes)
{
    // Draws are keyed to fixed stream blocks, not to shards, so the
    // tallies must not depend on how the sample range is cut up.
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "i-ssc"};
    spec.samples = 20000;
    spec.chunk = 1024;
    spec.threads = 2;
    const sim::CampaignResult base = sim::CampaignRunner(spec).run();

    for (std::uint64_t chunk : {100ull, 4096ull, 1ull << 16}) {
        spec.chunk = chunk; // 100 exercises the round-up-to-block path
        const sim::CampaignResult r = sim::CampaignRunner(spec).run();
        ASSERT_EQ(r.cells.size(), base.cells.size());
        for (std::size_t i = 0; i < base.cells.size(); ++i) {
            const OutcomeCounts& a = base.cells[i].counts;
            const OutcomeCounts& b = r.cells[i].counts;
            EXPECT_EQ(b.trials, a.trials) << "chunk=" << chunk;
            EXPECT_EQ(b.dce, a.dce) << "chunk=" << chunk;
            EXPECT_EQ(b.due, a.due) << "chunk=" << chunk;
            EXPECT_EQ(b.sdc, a.sdc) << "chunk=" << chunk;
        }
    }
}

TEST(Campaign, MatchesSequentialEvaluator)
{
    const auto duet = makeScheme("duet");
    Evaluator ev(*duet, 0x5EED);

    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.samples = 30000;
    spec.threads = 2;
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();

    for (ErrorPattern p : allErrorPatterns()) {
        const OutcomeCounts direct = ev.evaluate(p, spec.samples);
        const OutcomeCounts& campaign = r.counts("duet", p);
        EXPECT_EQ(campaign.trials, direct.trials);
        EXPECT_EQ(campaign.dce, direct.dce);
        EXPECT_EQ(campaign.due, direct.due);
        EXPECT_EQ(campaign.sdc, direct.sdc);
        EXPECT_EQ(campaign.exhaustive, direct.exhaustive);
    }
}

TEST(Campaign, WeightedOutcomeProbabilitiesSumToOne)
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"ni-secded", "trio", "ssc-dsd+"};
    spec.samples = 5000;
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();
    for (const std::string& id : spec.scheme_ids) {
        const WeightedOutcome w = weightedOutcome(r.perPattern(id));
        EXPECT_NEAR(w.correct + w.detect + w.sdc, 1.0, 1e-9) << id;
    }
}

TEST(Campaign, EmptyPatternListMeansAllSeven)
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"ni-secded"};
    spec.samples = 100;
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();
    EXPECT_EQ(r.cells.size(), allErrorPatterns().size());
    EXPECT_GT(r.shards, 0u);
    EXPECT_GT(r.totalTrials(), 0u);
}

TEST(CampaignReport, CsvAndJsonContainEveryCell)
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBit, ErrorPattern::oneBeat};
    spec.samples = 1000;
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();

    const std::string csv = sim::campaignCsv(r);
    EXPECT_EQ(csv.rfind("# manifest ", 0), 0u);
    EXPECT_NE(csv.find("scheme,pattern,trials"), std::string::npos);
    EXPECT_NE(csv.find("duet"), std::string::npos);
    // manifest comment + header + one line per cell (trailing
    // newline).
    const auto lines =
        std::count(csv.begin(), csv.end(), '\n');
    EXPECT_EQ(lines, 2 + static_cast<long>(r.cells.size()));
    // The comment names only plan identity — never the thread count,
    // so CSVs diff clean across thread counts and resumes.
    const std::string comment = csv.substr(0, csv.find('\n'));
    EXPECT_EQ(comment.find("threads"), std::string::npos);
    EXPECT_NE(comment.find("seed="), std::string::npos);

    const std::string json = sim::campaignJson(r);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"duet\""), std::string::npos);
    EXPECT_NE(json.find("\"trials_per_second\""), std::string::npos);
    EXPECT_NE(json.find("\"manifest\""), std::string::npos);
    EXPECT_NE(json.find("\"timing\""), std::string::npos);
    EXPECT_NE(json.find("\"build_type\""), std::string::npos);
    EXPECT_NE(json.find("\"utilization\""), std::string::npos);
}

TEST(CampaignReport, ManifestsNameTheSamplerVersion)
{
    // Two reports of one seed from builds of different sampler
    // versions hold different sampled tallies; both manifests say so.
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet"};
    spec.patterns = {ErrorPattern::oneBeat};
    spec.samples = 1000;
    const sim::CampaignResult r = sim::CampaignRunner(spec).run();

    const std::string csv = sim::campaignCsv(r);
    const std::string comment = csv.substr(0, csv.find('\n'));
    const std::string term = " sampler=" + std::to_string(kSamplerVersion);
    ASSERT_GE(comment.size(), term.size());
    EXPECT_EQ(comment.substr(comment.size() - term.size()), term)
        << comment;

    const auto json = sim::parseJson(sim::campaignJson(r));
    ASSERT_TRUE(json.ok()) << json.status().toString();
    const sim::JsonValue* manifest = json.value().find("manifest");
    ASSERT_NE(manifest, nullptr);
    ASSERT_NE(manifest->find("sampler"), nullptr);
    EXPECT_EQ(manifest->find("sampler")->asUint64().value(),
              static_cast<std::uint64_t>(kSamplerVersion));
}

TEST(Campaign, UnknownSchemeIsSkippedAndRecorded)
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "no-such-code", "trio"};
    spec.patterns = {ErrorPattern::oneBit};
    spec.samples = 100;
    const auto r = sim::CampaignRunner(spec).tryRun();
    ASSERT_TRUE(r.ok()) << r.status().toString();

    EXPECT_TRUE(r.value().hasScheme("duet"));
    EXPECT_TRUE(r.value().hasScheme("trio"));
    EXPECT_FALSE(r.value().hasScheme("no-such-code"));
    ASSERT_EQ(r.value().errors.size(), 1u);
    EXPECT_EQ(r.value().errors[0].scheme_id, "no-such-code");
    EXPECT_NE(r.value().errors[0].message.find("not_found"),
              std::string::npos);
    // The recorded degradation shows up in the JSON artifact.
    EXPECT_NE(sim::campaignJson(r.value()).find("no-such-code"),
              std::string::npos);
}

TEST(Campaign, AllSchemesUnknownIsAnError)
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"nope", "also-nope"};
    spec.patterns = {ErrorPattern::oneBit};
    spec.samples = 100;
    const auto r = sim::CampaignRunner(spec).tryRun();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::notFound);
}

TEST(Campaign, RegistryLookupIsStructured)
{
    const auto good = findScheme("trio");
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value()->id(), "trio");

    const auto bad = findScheme("definitely-not-a-scheme");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::notFound);
    // The message lists the known ids so the user can self-correct.
    EXPECT_NE(bad.status().message().find("trio"), std::string::npos);
}

TEST(CampaignReport, SaveTextFileReportsUnwritablePaths)
{
    const Status s = sim::saveTextFile(
        "/nonexistent_dir_gpuecc_xyz/out.json", "{}");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::ioError);
    EXPECT_NE(s.message().find("out.json"), std::string::npos);
}

TEST(CampaignReport, LoadTextFileRoundTripsAndReportsMissing)
{
    const std::string path =
        ::testing::TempDir() + "gpuecc_textfile_roundtrip.txt";
    const std::string content = "line one\nline two\n";
    ASSERT_TRUE(sim::saveTextFile(path, content).ok());
    const auto loaded = sim::loadTextFile(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value(), content);
    std::remove(path.c_str());

    const auto missing = sim::loadTextFile(path);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), ErrorCode::notFound);
}

TEST(OutcomeCountsTest, SelfConsistencyAndOverflowChecks)
{
    OutcomeCounts c;
    c.trials = 100;
    c.dce = 90;
    c.due = 8;
    c.sdc = 2;
    EXPECT_TRUE(c.selfConsistent());
    c.sdc = 3; // counts no longer sum to trials
    EXPECT_FALSE(c.selfConsistent());
    c.sdc = 2;

    OutcomeCounts near_max;
    near_max.trials = UINT64_MAX - 50;
    near_max.dce = UINT64_MAX - 50;
    EXPECT_TRUE(near_max.fitsWithoutOverflow(c) ==
                (c.trials <= 50));
    OutcomeCounts small;
    small.trials = 50;
    small.dce = 50;
    EXPECT_TRUE(near_max.fitsWithoutOverflow(small));
}

TEST(CampaignReport, JsonWriterEscapesAndNests)
{
    sim::JsonWriter w;
    w.beginObject();
    w.kv("text", std::string("a\"b\\c\n"));
    w.key("arr").beginArray().value(1).value(2.5).value(true)
        .endArray();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"text\":\"a\\\"b\\\\c\\n\",\"arr\":[1,2.5,true]}");
}

} // namespace
} // namespace gpuecc
