/**
 * @file
 * Graceful degradation under permanent faults (Section 2.5).
 *
 * The paper preserves single-pin correction in every proposed binary
 * organization so GPUs can degrade gracefully when a TSV/microbump
 * fails in the field, and notes that byte correction carries over to
 * permanent local-wordline failures. This bench quantifies both: the
 * permanent fault alone, and the fault plus a fresh single-bit soft
 * error on the same entry.
 */

#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "ecc/registry.hpp"
#include "faultsim/permanent.hpp"
#include "sim/campaign.hpp"
#include "sim/report.hpp"

using namespace gpuecc;

namespace {

std::string
cell(const DegradationCounts& c)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%4.1f/%4.1f/%4.1f",
                  100.0 * c.dceRate(), 100.0 * c.dueRate(),
                  100.0 * c.sdcRate());
    return buf;
}

void
jsonRow(sim::JsonWriter& w, const std::string& id,
        const std::string& experiment, const DegradationCounts& c)
{
    w.beginObject();
    w.kv("scheme", id);
    w.kv("experiment", experiment);
    w.kv("trials", c.trials);
    w.kv("dce_rate", c.dceRate());
    w.kv("due_rate", c.dueRate());
    w.kv("sdc_rate", c.sdcRate());
    w.endObject();
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("trials", "5000", "random trials per cell");
    cli.addFlag("seed", "0xDE62ADE", "random seed");
    cli.addFlag("threads", "1",
                "worker threads (0 = one per hardware thread)");
    cli.addFlag("json", "", "write results to this JSON file");
    cli.parse(argc, argv,
              "Graceful degradation under permanent pin/wordline "
              "faults (DCE/DUE/SDC %).");
    // Up to 2^20 chunks of 4096 trials per cell.
    const auto trials = static_cast<std::uint64_t>(
        cli.getIntInRange("trials", 1, std::int64_t{1} << 32));
    const auto seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    const auto threads = static_cast<int>(
        cli.getIntInRange("threads", 0, sim::kMaxWorkers));

    sim::JsonWriter json;
    json.beginObject();
    json.kv("trials", trials);
    json.kv("seed", seed);
    json.key("rows").beginArray();

    TextTable table({"scheme", "stuck pin", "pin + 1bit soft",
                     "stuck byte", "byte + 1bit soft"});
    for (const auto& scheme : paperSchemes()) {
        DegradationEvaluator ev(*scheme, seed, threads);
        const DegradationCounts pin =
            ev.faultAlone(PermanentFaultKind::stuckPin, trials);
        const DegradationCounts pin_soft = ev.faultPlusSoftError(
            PermanentFaultKind::stuckPin, ErrorPattern::oneBit, trials);
        const DegradationCounts byte =
            ev.faultAlone(PermanentFaultKind::stuckByte, trials);
        const DegradationCounts byte_soft = ev.faultPlusSoftError(
            PermanentFaultKind::stuckByte, ErrorPattern::oneBit,
            trials);
        table.addRow({scheme->name(), cell(pin), cell(pin_soft),
                      cell(byte), cell(byte_soft)});
        jsonRow(json, scheme->id(), "stuck_pin", pin);
        jsonRow(json, scheme->id(), "stuck_pin_plus_bit", pin_soft);
        jsonRow(json, scheme->id(), "stuck_byte", byte);
        jsonRow(json, scheme->id(), "stuck_byte_plus_bit", byte_soft);
    }
    table.print();
    std::printf("\ncells are corrected/detected/silent percentages. "
                "Paper context: every scheme except\nSSC-DSD+ "
                "corrects a stuck pin (graceful degradation); "
                "TrioECC additionally corrects\npermanent wordline "
                "(stuck byte) failures outright.\n");

    std::printf("\n== Diagnosed-pin erasure mode (library extension) "
                "==\n");
    TextTable erasure({"scheme", "stuck pin (erasure)",
                       "pin + 1bit soft (erasure)"});
    for (const char* id : {"ni-secded", "duet", "trio", "i-ssc",
                           "ssc-dsd+"}) {
        const auto scheme = makeScheme(id);
        DegradationEvaluator ev(*scheme, seed, threads);
        const DegradationCounts alone =
            ev.pinErasureMode(false, ErrorPattern::oneBit, trials);
        const DegradationCounts with_soft =
            ev.pinErasureMode(true, ErrorPattern::oneBit, trials);
        erasure.addRow({scheme->name(), cell(alone),
                        cell(with_soft)});
        jsonRow(json, id, "erasure_stuck_pin", alone);
        jsonRow(json, id, "erasure_stuck_pin_plus_bit", with_soft);
    }
    erasure.print();
    std::printf("\nonce the failed pin is diagnosed, the binary "
                "schemes regain full single-bit correction\n(d = 4: "
                "erasure + 1 error per codeword) and even SSC-DSD+ "
                "tolerates the pin - though its\nfour-symbol fill "
                "spends all residual detection, so an extra error "
                "can slip through.\n");

    json.endArray().endObject();
    const std::string path = cli.getString("json");
    if (!path.empty())
        sim::writeTextFile(path, json.str());
    return 0;
}
