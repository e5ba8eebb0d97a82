/**
 * @file
 * Ablation: sensitivity of SEC-DED byte-error SDC to the Hsiao
 * column arrangement.
 *
 * The SEC-DED guarantees do not depend on which minimum-odd-weight
 * column protects which data bit, but the byte-error SDC rate of the
 * non-interleaved baseline does - the paper's exact Hsiao-1970
 * "version 1" assignment is not printed, so this library ships a
 * deterministic arrangement calibrated to the ~23% byte-error SDC
 * the paper reports. This bench quantifies the spread across
 * arrangements (and shows that DuetECC/TrioECC are insensitive to
 * it, since interleaving turns byte errors into even-weight
 * per-codeword errors regardless of the column order).
 */

#include <cstdio>
#include <limits>

#include "codes/hsiao.hpp"
#include "codes/linear_code.hpp"
#include "common/bitops.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "ecc/binary_scheme.hpp"
#include "faultsim/evaluator.hpp"
#include "sim/campaign.hpp"
#include "sim/report.hpp"

using namespace gpuecc;

namespace {

/** Exhaustive codeword-level byte-error SDC rate of plain SEC-DED. */
double
byteSdcRate(const Code72& code)
{
    const std::uint64_t data = 0xDEADBEEF12345678ull;
    const Bits72 golden = code.encode(data);
    long sdc = 0, total = 0;
    for (int byte = 0; byte < 9; ++byte) {
        for (unsigned m = 1; m < 256; ++m) {
            if (popcount64(m) < 2)
                continue;
            Bits72 received = golden;
            for (int t = 0; t < 8; ++t) {
                if ((m >> t) & 1)
                    received.flip(8 * byte + t);
            }
            ++total;
            const CodewordDecode d =
                code.decode(received, Code72::Mode::secDed);
            if (d.status == CodewordDecode::Status::due)
                continue;
            if (code.extractData(received ^ d.correction) != data)
                ++sdc;
        }
    }
    return static_cast<double>(sdc) / total;
}

Gf2Matrix
shuffledDataColumns(const Gf2Matrix& h, Rng& rng)
{
    std::vector<int> order(64);
    for (int i = 0; i < 64; ++i)
        order[i] = i;
    for (int i = 63; i > 0; --i) {
        const int j = static_cast<int>(rng.nextBounded(i + 1));
        std::swap(order[i], order[j]);
    }
    Gf2Matrix out(8, 72);
    for (int c = 0; c < 64; ++c) {
        for (int r = 0; r < 8; ++r)
            out.set(r, c, h.get(r, order[c]));
    }
    for (int r = 0; r < 8; ++r)
        out.set(r, 64 + r, 1);
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("arrangements", "25",
                "random Hsiao column arrangements to sample");
    cli.addFlag("seed", "0xAB1A71", "shuffle seed");
    cli.addFlag("threads", "1",
                "worker threads for the interleaved-scheme check "
                "(0 = one per hardware thread)");
    cli.addFlag("json", "", "write results to this JSON file");
    cli.parse(argc, argv,
              "Ablation: SEC-DED byte-error SDC sensitivity to the "
              "Hsiao column arrangement.");
    const int arrangements = static_cast<int>(cli.getIntInRange(
        "arrangements", 1, std::numeric_limits<int>::max()));
    const auto seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    const auto threads = static_cast<int>(
        cli.getIntInRange("threads", 0, sim::kMaxWorkers));

    std::printf("byte-error SDC of non-interleaved SEC-DED by Hsiao "
                "column arrangement\n(exhaustive over all multi-bit "
                "byte errors):\n\n");

    const double calibrated = byteSdcRate(Code72(hsiao7264Matrix()));
    const double lex = byteSdcRate(Code72(hsiao7264LexMatrix()));
    TextTable table({"arrangement", "byte-error SDC"});
    table.addRow({"calibrated (library default)",
                  formatPercent(calibrated, 2)});
    table.addRow({"lexicographic", formatPercent(lex, 2)});

    Rng rng(seed);
    OnlineStats stats;
    double lo = 1.0, hi = 0.0;
    const Gf2Matrix base = hsiao7264LexMatrix();
    for (int trial = 0; trial < arrangements; ++trial) {
        const double r =
            byteSdcRate(Code72(shuffledDataColumns(base, rng)));
        stats.add(r);
        lo = std::min(lo, r);
        hi = std::max(hi, r);
    }
    table.addRow({"random arrangements (mean of " +
                      std::to_string(arrangements) + ")",
                  formatPercent(stats.mean(), 2)});
    table.addRow({"random arrangements (min..max)",
                  formatPercent(lo, 2) + " .. " + formatPercent(hi, 2)});
    table.print();

    sim::JsonWriter json;
    json.beginObject();
    json.kv("arrangements", static_cast<std::uint64_t>(arrangements));
    json.kv("seed", seed);
    json.kv("calibrated_byte_sdc", calibrated);
    json.kv("lexicographic_byte_sdc", lex);
    json.kv("random_mean_byte_sdc", stats.mean());
    json.kv("random_min_byte_sdc", lo);
    json.kv("random_max_byte_sdc", hi);

    std::printf("\npaper anchor: SEC-DED fails to correct or detect "
                "23-29%% of byte and beat errors\n(~23%% implied for "
                "bytes by the 5.4%% weighted SDC).\n\n");

    // Interleaved schemes are insensitive to the arrangement.
    json.key("duet").beginArray();
    for (const char* label : {"calibrated", "lexicographic"}) {
        const bool use_lex = std::string(label) == "lexicographic";
        auto code = std::make_shared<const Code72>(
            use_lex ? hsiao7264LexMatrix() : hsiao7264Matrix(),
            Code72::stride4Pairs());
        const BinaryEntryScheme duet(
            code, {"duet", "DuetECC", true, Code72::Mode::secDed,
                   true});
        Evaluator ev(duet, 0x5EED, threads);
        const OutcomeCounts byte =
            ev.evaluate(ErrorPattern::oneByte, 0);
        std::printf("DuetECC byte-error SDC with %s Hsiao: %s "
                    "(exhaustive)\n",
                    label, formatPercent(byte.sdcRate(), 4).c_str());
        json.beginObject();
        json.kv("arrangement", std::string(label));
        json.kv("byte_sdc", byte.sdcRate());
        json.endObject();
    }
    json.endArray().endObject();
    const std::string path = cli.getString("json");
    if (!path.empty())
        sim::writeTextFile(path, json.str());
    return 0;
}
