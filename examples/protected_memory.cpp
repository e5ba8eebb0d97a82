/**
 * @file
 * End-to-end protected-memory demo: a software DRAM region protected
 * by two different organizations absorbs a barrage of beam-style
 * soft-error events, with scrub-on-read repairing what the code can
 * correct. Because the simulator keeps golden copies, it can count
 * true silent corruptions - the number no field study can observe.
 *
 *   ./build/examples/protected_memory --events 3000
 */

#include <cstdio>
#include <limits>

#include "beam/events.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "ecc/protected_memory.hpp"
#include "ecc/registry.hpp"
#include "hbm2/geometry.hpp"

using namespace gpuecc;
using namespace gpuecc::beam;

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("events", "3000", "soft-error events to inject");
    cli.addFlag("entries", "65536", "region size in 32B entries");
    cli.addFlag("seed", "0x3E3", "random seed");
    cli.parse(argc, argv,
              "Protected-memory soak test under beam-style events.");

    const auto num_events = static_cast<std::uint64_t>(cli.getIntInRange(
        "events", 0, std::numeric_limits<std::int64_t>::max()));
    // At most the one HBM2 stack the events are drawn on.
    const auto num_entries =
        static_cast<std::uint64_t>(cli.getIntInRange(
            "entries", 1,
            static_cast<std::int64_t>(hbm2::entries_per_stack)));
    const auto seed = static_cast<std::uint64_t>(cli.getInt("seed"));

    TextTable table({"scheme", "events absorbed", "corrected reads",
                     "DUE reads", "silent corruptions"});

    for (const char* id : {"ni-secded", "duet", "trio", "ssc-dsd+"}) {
        ProtectedMemory mem(makeScheme(id), num_entries);

        // Fill the region with recognizable data.
        Rng data_rng(seed);
        for (std::uint64_t i = 0; i < num_entries; i += 64) {
            mem.write(i, {data_rng.next64(), data_rng.next64(),
                          data_rng.next64(), data_rng.next64()});
        }

        // Hit it with beam-style events (data-domain masks placed
        // through the scheme's systematic layout), reading back the
        // affected entry after each event.
        EventGenerator events(EventConfig{}, hbm2::Geometry(1),
                              Rng(seed ^ 0xE7));
        Rng addr_rng(seed ^ 0xADD);
        std::uint64_t absorbed = 0;
        for (std::uint64_t e = 0; e < num_events; ++e) {
            const SoftErrorEvent ev = events.sample();
            for (const auto& [entry, mask] : ev.flips) {
                const std::uint64_t index = entry % num_entries;
                mem.injectStructural(index, mask);
                (void)mem.read(index);
                ++absorbed;
            }
        }

        const ProtectedMemory::Stats& s = mem.stats();
        table.addRow({makeScheme(id)->name(), std::to_string(absorbed),
                      std::to_string(s.corrected),
                      std::to_string(s.dues),
                      std::to_string(s.sdcs)});
    }
    table.print();
    std::printf("\n(\"silent corruptions\" is simulator-only "
                "knowledge: the read returned wrong data with no "
                "flag.)\n");
    return 0;
}
