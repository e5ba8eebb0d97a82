/**
 * @file
 * Interactive ECC design-space explorer.
 *
 * Evaluates any registered organization against any Table 1 error
 * pattern (exhaustively where possible, Monte Carlo otherwise) and
 * prints DCE/DUE/SDC rates with confidence intervals - the tool you
 * would use to extend the paper's Table 2 with new codes. Runs on
 * the campaign engine, so --threads scales it and --json/--csv emit
 * the standard campaign artifacts.
 *
 *   ./build/examples/ecc_explorer --scheme trio --samples 200000
 *   ./build/examples/ecc_explorer --scheme ssc-dsd+ --pattern entry
 *   ./build/examples/ecc_explorer --scheme duet,trio --threads 0
 */

#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "ecc/registry.hpp"
#include "faultsim/weighted.hpp"
#include "sim/campaign.hpp"
#include "sim/cli.hpp"

using namespace gpuecc;

namespace {

ErrorPattern
patternFromName(const std::string& name)
{
    for (const PatternInfo& info : patternTable()) {
        if (info.label == name)
            return info.pattern;
    }
    if (name == "bit") return ErrorPattern::oneBit;
    if (name == "pin") return ErrorPattern::onePin;
    if (name == "byte") return ErrorPattern::oneByte;
    if (name == "2bit") return ErrorPattern::twoBits;
    if (name == "3bit") return ErrorPattern::threeBits;
    if (name == "beat") return ErrorPattern::oneBeat;
    if (name == "entry") return ErrorPattern::wholeEntry;
    fatal("unknown pattern '" + name +
          "' (use bit/pin/byte/2bit/3bit/beat/entry/all)");
}

std::vector<std::string>
splitCommas(const std::string& text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("scheme", "trio",
                "comma-separated scheme ids (ni-secded, i-secded, "
                "duet, ni-sec2bec, i-sec2bec, trio, i-ssc, i-ssc-csc, "
                "ssc-dsd+, dsc, ssc-tsd)");
    cli.addFlag("pattern", "all",
                "error pattern: bit, pin, byte, 2bit, 3bit, beat, "
                "entry, or all");
    sim::addCampaignFlags(cli);
    cli.parse(argc, argv,
              "Evaluate ECC organizations against the paper's "
              "error patterns.");

    sim::CampaignSpec spec = sim::campaignSpecFromCli(cli);
    spec.scheme_ids = splitCommas(cli.getString("scheme"));
    const std::string which = cli.getString("pattern");
    if (which != "all")
        spec.patterns = {patternFromName(which)};
    const sim::CampaignResult result = sim::CampaignRunner(spec).run();
    if (result.interrupted)
        return sim::finalizeCampaign(result, cli);

    for (const std::string& id : spec.scheme_ids) {
        if (!result.hasScheme(id))
            continue;
        const auto scheme = makeScheme(id);
        std::printf("scheme: %s\n", scheme->name().c_str());
        std::printf("pin-error correction: %s\n\n",
                    scheme->correctsPinErrors() ? "yes" : "no");

        TextTable table({"pattern", "trials", "mode", "DCE", "DUE",
                         "SDC", "SDC 95% CI"});
        for (const PatternInfo& info : patternTable()) {
            if (which != "all" &&
                patternFromName(which) != info.pattern)
                continue;
            const OutcomeCounts& counts =
                result.counts(id, info.pattern);
            const Interval ci = counts.sdcInterval();
            std::string interval = "[";
            interval += formatPercent(ci.lo, 4);
            interval += ", ";
            interval += formatPercent(ci.hi, 4);
            interval += "]";
            table.addRow({info.label, std::to_string(counts.trials),
                          counts.exhaustive ? "exhaustive" : "sampled",
                          formatPercent(counts.dceRate(), 4),
                          formatPercent(counts.dueRate(), 4),
                          formatPercent(counts.sdcRate(), 4), interval});
        }
        table.print();

        if (which == "all") {
            const WeightedOutcome w =
                weightedOutcome(result.perPattern(id));
            std::printf("\nTable-1-weighted (a random single "
                        "event):\n");
            std::printf("  corrected: %s\n",
                        formatPercent(w.correct, 4).c_str());
            std::printf("  detected:  %s\n",
                        formatPercent(w.detect, 4).c_str());
            std::printf("  SDC:       %s\n",
                        formatPercent(w.sdc, 6).c_str());
        }
        std::printf("\n");
    }
    std::printf("%llu trials in %.2f s (%d threads)\n",
                static_cast<unsigned long long>(result.totalTrials()),
                result.seconds, spec.threads);
    return sim::finalizeCampaign(result, cli);
}
