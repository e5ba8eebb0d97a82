/** @file Tests for the table renderer and CLI parser. */

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "faultsim/shard.hpp"
#include "sim/cli.hpp"

namespace gpuecc {
namespace {

TEST(TextTableTest, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "23"});
    const std::string out = t.render();
    // Header, rule, two rows.
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    // Both value cells start at the same column.
    const auto lines_start = out.find("x");
    const auto header_value = out.find("value");
    ASSERT_NE(lines_start, std::string::npos);
    ASSERT_NE(header_value, std::string::npos);
}

TEST(TextTableTest, Formatters)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatPercent(0.054, 1), "5.4%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
    EXPECT_EQ(formatScientific(0.00012345, 2), "1.23e-04");
}

TEST(CliTest, DefaultsAndOverrides)
{
    Cli cli;
    cli.addFlag("samples", "1000", "sample count");
    cli.addFlag("rate", "2.5", "a rate");
    cli.addFlag("verbose", "false", "chatty output");
    cli.addFlag("name", "abc", "a string");

    const char* argv[] = {"prog", "--samples", "42", "--rate=7.25",
                          "--verbose"};
    cli.parse(5, const_cast<char**>(argv), "test");

    EXPECT_EQ(cli.getInt("samples"), 42);
    EXPECT_DOUBLE_EQ(cli.getDouble("rate"), 7.25);
    EXPECT_TRUE(cli.getBool("verbose"));
    EXPECT_EQ(cli.getString("name"), "abc"); // default preserved
}

TEST(CliTest, HexIntegers)
{
    Cli cli;
    cli.addFlag("seed", "0x10", "seed");
    const char* argv[] = {"prog"};
    cli.parse(1, const_cast<char**>(argv), "test");
    EXPECT_EQ(cli.getInt("seed"), 16);
}

TEST(CliTest, TryParseRejectsUnknownFlag)
{
    Cli cli;
    cli.addFlag("samples", "1000", "sample count");
    const char* argv[] = {"prog", "--smaples", "42"};
    const Status s = cli.tryParse(3, const_cast<char**>(argv));
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::invalidArgument);
    EXPECT_NE(s.message().find("smaples"), std::string::npos);
}

TEST(CliTest, TryParseRejectsPositionalArguments)
{
    Cli cli;
    cli.addFlag("samples", "1000", "sample count");
    const char* argv[] = {"prog", "stray"};
    const Status s = cli.tryParse(2, const_cast<char**>(argv));
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::invalidArgument);
    EXPECT_NE(s.message().find("stray"), std::string::npos);
}

TEST(CliTest, TryParseReportsHelpWithoutExiting)
{
    Cli cli;
    cli.addFlag("samples", "1000", "sample count");
    const char* argv[] = {"prog", "--help"};
    EXPECT_TRUE(cli.tryParse(2, const_cast<char**>(argv)).ok());
    EXPECT_TRUE(cli.helpRequested());
    EXPECT_NE(cli.usageText("desc").find("--samples"),
              std::string::npos);
}

TEST(CliTest, TryGetRejectsMalformedNumbers)
{
    Cli cli;
    cli.addFlag("samples", "1000", "sample count");
    cli.addFlag("rate", "2.5", "a rate");
    cli.addFlag("nan", "0", "not a number");
    cli.addFlag("inf", "0", "infinite");
    const char* argv[] = {"prog", "--samples", "12abc", "--rate",
                          "fast", "--nan", "nan", "--inf", "inf"};
    ASSERT_TRUE(cli.tryParse(9, const_cast<char**>(argv)).ok());

    const auto n = cli.tryGetInt("samples");
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::invalidArgument);
    // strtod accepts nan and inf; no flag does.
    for (const char* name : {"rate", "nan", "inf"}) {
        const auto d = cli.tryGetDouble(name);
        ASSERT_FALSE(d.ok()) << name;
        EXPECT_EQ(d.status().code(), ErrorCode::invalidArgument);
    }

    // Well-formed values still come through the same accessors.
    const char* ok_argv[] = {"prog", "--samples=42", "--rate=0.5"};
    Cli ok_cli;
    ok_cli.addFlag("samples", "1000", "sample count");
    ok_cli.addFlag("rate", "2.5", "a rate");
    ASSERT_TRUE(ok_cli.tryParse(3, const_cast<char**>(ok_argv)).ok());
    EXPECT_EQ(ok_cli.tryGetInt("samples").value(), 42);
    EXPECT_DOUBLE_EQ(ok_cli.tryGetDouble("rate").value(), 0.5);
}

TEST(CliTest, BoolAcceptsSixSpellings)
{
    const auto parsed = [](const char* text) {
        Cli cli;
        cli.addFlag("flag", "false", "a switch");
        const char* argv[] = {"prog", "--flag", text};
        EXPECT_TRUE(cli.tryParse(3, const_cast<char**>(argv)).ok());
        return cli.getBool("flag");
    };
    for (const char* text : {"true", "1", "yes"})
        EXPECT_TRUE(parsed(text)) << text;
    for (const char* text : {"false", "0", "no"})
        EXPECT_FALSE(parsed(text)) << text;
}

TEST(CliTest, UsageTextKeepsLongHelpWhole)
{
    // A help line far past any fixed line buffer must still end in its
    // default and a newline, never run into the next flag.
    const std::string help(300, 'h');
    Cli cli;
    cli.addFlag("long", "7", help);
    cli.addFlag("next", "0", "the next flag");
    const std::string text = cli.usageText("desc");
    EXPECT_NE(text.find(help + " (default: 7)\n  --next"),
              std::string::npos)
        << text;
}

TEST(CliTest, UsageTextShowsDeclaredDefaultsAfterParsing)
{
    // A usage error prints the help text after parsing: each flag's
    // declared default, not the value the command line gave it.
    Cli cli;
    cli.addFlag("runs", "10", "beam runs");
    cli.addFlag("verbose", "false", "chatty output");
    const char* argv[] = {"prog", "--runs", "3", "--verbose", "--bogus"};
    EXPECT_FALSE(cli.tryParse(5, const_cast<char**>(argv)).ok());
    EXPECT_EQ(cli.getInt("runs"), 3);
    EXPECT_TRUE(cli.getBool("verbose"));
    const std::string text = cli.usageText("desc");
    EXPECT_NE(text.find("beam runs (default: 10)"), std::string::npos)
        << text;
    EXPECT_NE(text.find("chatty output (default: false)"),
              std::string::npos)
        << text;
}

TEST(CliTest, NegativeNumberAfterAFlagIsItsValue)
{
    Cli cli;
    cli.addFlag("runs", "10", "beam runs");
    cli.addFlag("rate", "1", "a rate");
    cli.addFlag("quiet", "false", "less output");
    const char* argv[] = {"prog", "--runs", "-1", "--rate", "-2.5e-3",
                          "--quiet"};
    ASSERT_TRUE(cli.tryParse(6, const_cast<char**>(argv)).ok());
    EXPECT_EQ(cli.getInt("runs"), -1);
    EXPECT_DOUBLE_EQ(cli.getDouble("rate"), -2.5e-3);
    EXPECT_TRUE(cli.getBool("quiet"));

    // A following flag is still a flag: the first stays a switch.
    Cli switches;
    switches.addFlag("quiet", "false", "less output");
    switches.addFlag("runs", "10", "beam runs");
    const char* flags[] = {"prog", "--quiet", "--runs", "-7"};
    ASSERT_TRUE(switches.tryParse(4, const_cast<char**>(flags)).ok());
    EXPECT_TRUE(switches.getBool("quiet"));
    EXPECT_EQ(switches.getInt("runs"), -7);

    // Anything else with a leading dash is not taken as a value.
    Cli stray;
    stray.addFlag("runs", "10", "beam runs");
    const char* bad[] = {"prog", "--runs", "-x"};
    EXPECT_FALSE(stray.tryParse(3, const_cast<char**>(bad)).ok());
}

TEST(CliDeathTest, NegativeCountIsARangeErrorNotAUsageError)
{
    // "--runs -1" reaches the range check and exits 1 naming the
    // bounds, like "--runs=-1".
    for (const std::vector<const char*>& args :
         {std::vector<const char*>{"prog", "--runs", "-1"},
          std::vector<const char*>{"prog", "--runs=-1"}}) {
        EXPECT_EXIT(
            {
                Cli cli;
                cli.addFlag("runs", "10", "beam runs");
                cli.parse(static_cast<int>(args.size()),
                          const_cast<char**>(args.data()), "test");
                cli.getIntInRange("runs", 1, 1000000);
            },
            ::testing::ExitedWithCode(1), "must be in");
    }
}

TEST(CliDeathTest, ParseExitsWithUsageCodeOnUnknownFlag)
{
    Cli cli;
    cli.addFlag("samples", "1000", "sample count");
    const char* argv[] = {"prog", "--bogus"};
    EXPECT_EXIT(cli.parse(2, const_cast<char**>(argv), "test"),
                ::testing::ExitedWithCode(kUsageExitCode),
                "unknown flag");
}

/**
 * Parse argv through the shared campaign flags into a spec. Parsing
 * only: no pool, plan or fleet is built, whatever the counts say.
 */
sim::CampaignSpec
campaignSpecFrom(std::vector<std::string> args)
{
    Cli cli;
    sim::addCampaignFlags(cli, "1000");
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    cli.parse(static_cast<int>(argv.size()), argv.data(), "test");
    return sim::campaignSpecFromCli(cli);
}

TEST(CliDeathTest, CampaignDurationsMustBeFiniteAndBounded)
{
    // Durations become int milliseconds downstream: a value past
    // kMaxDurationSeconds, or one that is not finite, exits like the
    // other range checks, naming the flag.
    EXPECT_EXIT(campaignSpecFrom({"--fleet-heartbeat-timeout", "1e300"}),
                ::testing::ExitedWithCode(1), "fleet-heartbeat-timeout");
    EXPECT_EXIT(campaignSpecFrom({"--checkpoint-interval", "inf"}),
                ::testing::ExitedWithCode(1), "checkpoint-interval");
    EXPECT_EQ(campaignSpecFrom({"--checkpoint-interval", "1e6"})
                  .checkpoint_interval_s,
              kMaxDurationSeconds);
}

TEST(CliTest, CampaignIntegerFlagsAcceptTheirBounds)
{
    const std::string max_samples = std::to_string(kMaxSampledSamples);
    const sim::CampaignSpec spec = campaignSpecFrom(
        {"--threads=4096", "--fleet-workers=4096",
         "--samples=" + max_samples, "--chunk=" + max_samples,
         "--seed=0x7fffffffffffffff", "--fleet-unit=1",
         "--fleet-max-unit-attempts=2147483647"});
    EXPECT_EQ(spec.threads, sim::kMaxWorkers);
    EXPECT_EQ(spec.fleet_workers, sim::kMaxWorkers);
    EXPECT_EQ(spec.samples, kMaxSampledSamples);
    EXPECT_EQ(spec.chunk, kMaxSampledSamples);
    EXPECT_EQ(spec.seed,
              static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max()));
    EXPECT_EQ(spec.fleet_unit_shards, 1u);
    EXPECT_EQ(spec.fleet_max_unit_attempts,
              std::numeric_limits<int>::max());
    // The sample bound is the stream-id space planShards keys blocks to.
    EXPECT_EQ(kMaxSampledSamples,
              kStreamBlockSamples * kStreamBlocksPerPattern);

    const sim::CampaignSpec low = campaignSpecFrom(
        {"--threads=0", "--fleet-workers=0", "--samples=0", "--chunk=1",
         "--seed=0", "--fleet-max-unit-attempts=1"});
    EXPECT_EQ(low.threads, 0);
    EXPECT_EQ(low.samples, 0u);
    EXPECT_EQ(low.chunk, 1u);
    EXPECT_EQ(low.seed, 0u);
    EXPECT_EQ(low.fleet_max_unit_attempts, 1);
}

TEST(CliDeathTest, CampaignIntegerFlagsRejectOutOfRangeValues)
{
    // A value outside its flag's range exits 1 naming the flag and
    // its bounds. It must never narrow or wrap into another value, as
    // 4294967298 threads would into 2.
    const std::string max_samples = std::to_string(kMaxSampledSamples);
    const auto rejects = [](const std::string& arg,
                            const std::string& message) {
        EXPECT_EXIT(campaignSpecFrom({arg}),
                    ::testing::ExitedWithCode(1), message)
            << arg;
    };
    rejects("--threads=4294967298", "--threads must be in \\[0, 4096\\]");
    rejects("--threads=4097", "--threads must be in \\[0, 4096\\]");
    rejects("--threads=-1", "--threads must be in \\[0, 4096\\]");
    rejects("--fleet-workers=4097",
            "--fleet-workers must be in \\[0, 4096\\]");
    rejects("--fleet-max-unit-attempts=4294967297",
            "--fleet-max-unit-attempts must be in \\[1, 2147483647\\]");
    rejects("--fleet-max-unit-attempts=0",
            "--fleet-max-unit-attempts must be in \\[1, ");
    rejects("--chunk=-1", "--chunk must be in \\[1, " + max_samples);
    rejects("--chunk=0", "--chunk must be in \\[1, " + max_samples);
    rejects("--samples=-1",
            "--samples must be in \\[0, " + max_samples + "\\]");
    rejects("--samples=" + std::to_string(kMaxSampledSamples + 1),
            "--samples must be in \\[0, " + max_samples + "\\]");
    rejects("--seed=-1", "--seed must be in \\[0, ");
    rejects("--fleet-unit=0", "--fleet-unit must be in \\[1, ");
    // Past 64 bits, or not an integer at all: the bounds still show.
    rejects("--threads=99999999999999999999",
            "--threads: .* overflows 64 bits; must be in \\[0, 4096\\]");
    rejects("--samples=1e6", "--samples: '1e6' is not an integer; must be in");
}

TEST(CliDeathTest, ResumeRejectsAnUnknownBooleanSpelling)
{
    // "--resume=on" once read as false and silently started fresh.
    EXPECT_EXIT(
        campaignSpecFrom({"--checkpoint", "ck.json", "--resume=on"}),
        ::testing::ExitedWithCode(1), "--resume: 'on'");
}

TEST(CliDeathTest, GetIntDiesOnMalformedValue)
{
    Cli cli;
    cli.addFlag("samples", "1000", "sample count");
    const char* argv[] = {"prog", "--samples", "1e5"};
    cli.parse(3, const_cast<char**>(argv), "test");
    EXPECT_DEATH(cli.getInt("samples"), "samples");
}

} // namespace
} // namespace gpuecc
