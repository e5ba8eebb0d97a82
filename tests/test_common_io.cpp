/** @file Tests for the table renderer and CLI parser. */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/table.hpp"
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

TEST(CliDeathTest, ParseExitsWithUsageCodeOnUnknownFlag)
{
    Cli cli;
    cli.addFlag("samples", "1000", "sample count");
    const char* argv[] = {"prog", "--bogus"};
    EXPECT_EXIT(cli.parse(2, const_cast<char**>(argv), "test"),
                ::testing::ExitedWithCode(kUsageExitCode),
                "unknown flag");
}

TEST(CliDeathTest, CampaignDurationsMustBeFiniteAndBounded)
{
    // Durations become int milliseconds downstream: a value past
    // kMaxDurationSeconds, or one that is not finite, exits like the
    // other range checks, naming the flag.
    const auto specFrom = [](const char* flag, const char* value) {
        Cli cli;
        sim::addCampaignFlags(cli, "1000");
        const char* argv[] = {"prog", flag, value};
        cli.parse(3, const_cast<char**>(argv), "test");
        return sim::campaignSpecFromCli(cli);
    };
    EXPECT_EXIT(specFrom("--fleet-heartbeat-timeout", "1e300"),
                ::testing::ExitedWithCode(1), "fleet-heartbeat-timeout");
    EXPECT_EXIT(specFrom("--checkpoint-interval", "inf"),
                ::testing::ExitedWithCode(1), "checkpoint-interval");
    EXPECT_EQ(specFrom("--checkpoint-interval", "1e6").checkpoint_interval_s,
              kMaxDurationSeconds);
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
