/**
 * @file
 * Golden decode vectors for every registered scheme.
 *
 * Each row of the fixture is one (data, injected physical bits,
 * expected outcome) triple, generated from the library's behavior at
 * the time the compiled codec was introduced and committed verbatim.
 * The suite decodes each vector under BOTH codec backends, so any
 * future change to a parity-check matrix, layout permutation, or
 * decode policy that silently alters an outcome fails here — the
 * per-scheme expectations are frozen, not recomputed.
 *
 * Regenerate (after an *intentional* behavior change) by re-running
 * the decode loop below and updating the rows; the fixture includes
 * miscorrection rows (e.g. ni-secded {3,17,33}) whose expected data
 * differs from the encoded data on purpose.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/codec_mode.hpp"
#include "ecc/registry.hpp"
#include "ecc/rs_scheme.hpp"

namespace gpuecc {
namespace {

using Status = EntryDecode::Status;

/** The data word every fixture entry protects. */
constexpr EntryData kData = {0x0123456789ABCDEFull,
                             0xFEDCBA9876543210ull,
                             0xA5A5A5A5A5A5A5A5ull,
                             0x0F0F0F0F00FF00FFull};

struct GoldenVector
{
    const char* scheme_id;
    std::vector<int> flipped_bits; //!< physical positions, 0..287
    Status status;
    EntryData data; //!< expected decode; ignored when status == due
};

const std::vector<GoldenVector>&
goldenVectors()
{
    static const std::vector<GoldenVector> vectors = {
    {"ni-secded", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-secded", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-secded", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-secded", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-secded", {10, 200}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-secded", {64, 65}, Status::due, {}},
    {"ni-secded", {24, 25, 26, 27, 28, 29, 30, 31}, Status::due, {}},
    {"ni-secded", {7, 79, 151, 223}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-secded", {0, 97, 195, 286}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-secded", {3, 17, 33}, Status::corrected,
     {0x0123456589A9DDE7ull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-secded", {12, 23, 41, 58, 66}, Status::due, {}},
    {"i-secded", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-secded", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-secded", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-secded", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-secded", {10, 200}, Status::due, {}},
    {"i-secded", {64, 65}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-secded", {24, 25, 26, 27, 28, 29, 30, 31}, Status::due, {}},
    {"i-secded", {7, 79, 151, 223}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-secded", {0, 97, 195, 286}, Status::due, {}},
    {"i-secded", {3, 17, 33}, Status::due, {}},
    {"i-secded", {12, 23, 41, 58, 66}, Status::due, {}},
    {"duet", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"duet", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"duet", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"duet", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"duet", {10, 200}, Status::due, {}},
    {"duet", {64, 65}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"duet", {24, 25, 26, 27, 28, 29, 30, 31}, Status::due, {}},
    {"duet", {7, 79, 151, 223}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"duet", {0, 97, 195, 286}, Status::due, {}},
    {"duet", {3, 17, 33}, Status::due, {}},
    {"duet", {12, 23, 41, 58, 66}, Status::due, {}},
    {"ni-sec2bec", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-sec2bec", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-sec2bec", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-sec2bec", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-sec2bec", {10, 200}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-sec2bec", {64, 65}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-sec2bec", {24, 25, 26, 27, 28, 29, 30, 31}, Status::due, {}},
    {"ni-sec2bec", {7, 79, 151, 223}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-sec2bec", {0, 97, 195, 286}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-sec2bec", {3, 17, 33}, Status::corrected,
     {0x0123456189A9CDE7ull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ni-sec2bec", {12, 23, 41, 58, 66}, Status::corrected,
     {0x07234767892BDDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-sec2bec", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-sec2bec", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-sec2bec", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-sec2bec", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-sec2bec", {10, 200}, Status::due, {}},
    {"i-sec2bec", {64, 65}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-sec2bec", {24, 25, 26, 27, 28, 29, 30, 31}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-sec2bec", {7, 79, 151, 223}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-sec2bec", {0, 97, 195, 286}, Status::due, {}},
    {"i-sec2bec", {3, 17, 33}, Status::due, {}},
    {"i-sec2bec", {12, 23, 41, 58, 66}, Status::due, {}},
    {"trio", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"trio", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"trio", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"trio", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"trio", {10, 200}, Status::due, {}},
    {"trio", {64, 65}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"trio", {24, 25, 26, 27, 28, 29, 30, 31}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"trio", {7, 79, 151, 223}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"trio", {0, 97, 195, 286}, Status::due, {}},
    {"trio", {3, 17, 33}, Status::due, {}},
    {"trio", {12, 23, 41, 58, 66}, Status::due, {}},
    {"i-ssc", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {10, 200}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {64, 65}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {24, 25, 26, 27, 28, 29, 30, 31}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {7, 79, 151, 223}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {0, 97, 195, 286}, Status::due, {}},
    {"i-ssc", {3, 17, 33}, Status::corrected,
     {0x0123456789A9CDE5ull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {12, 23, 41, 58, 66}, Status::due, {}},
    {"i-ssc-csc", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {10, 200}, Status::due, {}},
    {"i-ssc-csc", {64, 65}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {24, 25, 26, 27, 28, 29, 30, 31}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {7, 79, 151, 223}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {0, 97, 195, 286}, Status::due, {}},
    {"i-ssc-csc", {3, 17, 33}, Status::corrected,
     {0x0123456789A9CDE5ull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {12, 23, 41, 58, 66}, Status::due, {}},
    {"ssc-dsd+", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {10, 200}, Status::due, {}},
    {"ssc-dsd+", {64, 65}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {24, 25, 26, 27, 28, 29, 30, 31}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {7, 79, 151, 223}, Status::due, {}},
    {"ssc-dsd+", {0, 97, 195, 286}, Status::due, {}},
    {"ssc-dsd+", {3, 17, 33}, Status::due, {}},
    {"ssc-dsd+", {12, 23, 41, 58, 66}, Status::due, {}},
    {"dsc", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {10, 200}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {64, 65}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {24, 25, 26, 27, 28, 29, 30, 31}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {7, 79, 151, 223}, Status::due, {}},
    {"dsc", {0, 97, 195, 286}, Status::due, {}},
    {"dsc", {3, 17, 33}, Status::due, {}},
    {"dsc", {12, 23, 41, 58, 66}, Status::due, {}},
    {"ssc-tsd", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {5}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {71}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {287}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {10, 200}, Status::due, {}},
    {"ssc-tsd", {64, 65}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {24, 25, 26, 27, 28, 29, 30, 31}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {7, 79, 151, 223}, Status::due, {}},
    {"ssc-tsd", {0, 97, 195, 286}, Status::due, {}},
    {"ssc-tsd", {3, 17, 33}, Status::due, {}},
    {"ssc-tsd", {12, 23, 41, 58, 66}, Status::due, {}},
    };
    return vectors;
}

/**
 * Symbol-level golden vectors for the Reed-Solomon schemes: one
 * (symbol, magnitude) injection list per row, applied through each
 * organization's physical layout, with the decode outcome frozen when
 * the rows were written. The rows pin the outcomes across *both*
 * codec backends and through decode() and decodeBatch() alike: a
 * rewrite of a fast path may never change results.
 * The final row of each scheme block is a deliberate miscorrection
 * (a low-weight codeword difference plus one extra symbol error):
 * the frozen *wrong* data is part of the contract.
 */
struct RsSymbolVector
{
    const char* scheme_id;
    std::vector<std::pair<int, std::uint8_t>> symbol_errors;
    Status status;
    EntryData data; //!< expected decode; ignored when status == due
};

const std::vector<RsSymbolVector>&
rsSymbolVectors()
{
    static const std::vector<RsSymbolVector> vectors = {
    {"i-ssc", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {{0, 0x01}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {{7, 0x53}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {{35, 0xFF}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {{3, 0xAA}, {20, 0x11}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {{1, 0x07}, {18, 0x80}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc", {{5, 0x01}, {6, 0x02}, {30, 0x80}}, Status::due, {}},
    {"i-ssc", {{2, 0xFF}, {19, 0xFF}, {27, 0x0F}, {33, 0xF0}}, Status::due, {}},
    {"i-ssc", {{0, 0x6E}, {1, 0x52}, {5, 0x3C}, {12, 0x5A}}, Status::corrected,
     {0x01234567B5ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {{0, 0x01}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {{7, 0x53}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {{35, 0xFF}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"i-ssc-csc", {{3, 0xAA}, {20, 0x11}}, Status::due, {}},
    {"i-ssc-csc", {{1, 0x07}, {18, 0x80}}, Status::due, {}},
    {"i-ssc-csc", {{5, 0x01}, {6, 0x02}, {30, 0x80}}, Status::due, {}},
    {"i-ssc-csc", {{2, 0xFF}, {19, 0xFF}, {27, 0x0F}, {33, 0xF0}}, Status::due, {}},
    {"i-ssc-csc", {{0, 0x6E}, {1, 0x52}, {5, 0x3C}, {12, 0x5A}}, Status::corrected,
     {0x01234567B5ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {{0, 0x01}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {{7, 0x53}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {{35, 0xFF}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-dsd+", {{3, 0xAA}, {20, 0x11}}, Status::due, {}},
    {"ssc-dsd+", {{1, 0x07}, {18, 0x80}}, Status::due, {}},
    {"ssc-dsd+", {{5, 0x01}, {6, 0x02}, {30, 0x80}}, Status::due, {}},
    {"ssc-dsd+", {{2, 0xFF}, {19, 0xFF}, {27, 0x0F}, {33, 0xF0}}, Status::due, {}},
    {"ssc-dsd+", {{0, 0xC7}, {1, 0x91}, {2, 0x47}, {3, 0x2D}, {9, 0x3C}, {25, 0x5A}}, Status::corrected,
     {0x0123796789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {{0, 0x01}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {{7, 0x53}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {{35, 0xFF}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {{3, 0xAA}, {20, 0x11}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {{1, 0x07}, {18, 0x80}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"dsc", {{5, 0x01}, {6, 0x02}, {30, 0x80}}, Status::due, {}},
    {"dsc", {{2, 0xFF}, {19, 0xFF}, {27, 0x0F}, {33, 0xF0}}, Status::due, {}},
    {"dsc", {{0, 0xC7}, {1, 0x91}, {2, 0x47}, {3, 0x2D}, {9, 0x3C}, {25, 0x5A}}, Status::corrected,
     {0x0123796789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {}, Status::clean,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {{0, 0x01}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {{7, 0x53}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {{35, 0xFF}}, Status::corrected,
     {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    {"ssc-tsd", {{3, 0xAA}, {20, 0x11}}, Status::due, {}},
    {"ssc-tsd", {{1, 0x07}, {18, 0x80}}, Status::due, {}},
    {"ssc-tsd", {{5, 0x01}, {6, 0x02}, {30, 0x80}}, Status::due, {}},
    {"ssc-tsd", {{2, 0xFF}, {19, 0xFF}, {27, 0x0F}, {33, 0xF0}}, Status::due, {}},
    {"ssc-tsd", {{0, 0xC7}, {1, 0x91}, {2, 0x47}, {3, 0x2D}, {9, 0x3C}, {25, 0x5A}}, Status::corrected,
     {0x0123796789ABCDEFull, 0xFEDCBA9876543210ull, 0xA5A5A5A5A5A5A5A5ull, 0x0F0F0F0F00FF00FFull}},
    };
    return vectors;
}

/** Apply one symbol-level injection through the physical layout. */
Bits288
applySymbolErrors(const std::string& id, const Bits288& golden,
                  const std::vector<std::pair<int, std::uint8_t>>& inj)
{
    const bool interleaved = id.rfind("i-ssc", 0) == 0;
    Bits288 r = golden;
    for (const auto& [sym, mag] : inj) {
        if (interleaved) {
            const int cw = sym / 18;
            const int pos = sym % 18;
            for (int t = 0; t < 8; ++t) {
                if ((mag >> t) & 1) {
                    const int p =
                        InterleavedSscScheme::physicalBit(cw, pos, t);
                    r.set(p, !r.get(p));
                }
            }
        } else {
            const int base = 8 * Rs3632Scheme::physicalByteOf(sym);
            for (int t = 0; t < 8; ++t) {
                if ((mag >> t) & 1)
                    r.set(base + t, !r.get(base + t));
            }
        }
    }
    return r;
}

class GoldenVectors
    : public ::testing::TestWithParam<CodecBackend>
{
  protected:
    GoldenVectors() : saved_(codecBackend())
    {
        setCodecBackend(GetParam());
    }
    ~GoldenVectors() override { setCodecBackend(saved_); }

  private:
    CodecBackend saved_;
};

TEST_P(GoldenVectors, AllVectorsDecodeAsCommitted)
{
    std::string current_id;
    std::shared_ptr<EntryScheme> scheme;
    Bits288 golden;
    std::size_t covered = 0;
    for (const GoldenVector& v : goldenVectors()) {
        if (v.scheme_id != current_id) {
            current_id = v.scheme_id;
            scheme = makeScheme(current_id);
            golden = scheme->encode(kData);
            ++covered;
        }
        Bits288 received = golden;
        for (int pos : v.flipped_bits)
            received.set(pos, !received.get(pos));
        const EntryDecode d = scheme->decode(received);
        SCOPED_TRACE(std::string(v.scheme_id) + " flips=" +
                     std::to_string(v.flipped_bits.size()));
        EXPECT_EQ(d.status, v.status);
        if (v.status != Status::due) {
            EXPECT_EQ(d.data, v.data);
        }
    }
    // One block per registered scheme; catches fixture truncation.
    EXPECT_EQ(covered, schemeIds().size());
}

TEST_P(GoldenVectors, RsSymbolVectorsDecodeAsCommitted)
{
    std::string current_id;
    std::shared_ptr<EntryScheme> scheme;
    Bits288 golden;
    std::size_t covered = 0;
    for (const RsSymbolVector& v : rsSymbolVectors()) {
        if (v.scheme_id != current_id) {
            current_id = v.scheme_id;
            scheme = makeScheme(current_id);
            golden = scheme->encode(kData);
            ++covered;
        }
        const Bits288 received =
            applySymbolErrors(current_id, golden, v.symbol_errors);
        const EntryDecode d = scheme->decode(received);
        SCOPED_TRACE(std::string(v.scheme_id) + " symbols=" +
                     std::to_string(v.symbol_errors.size()));
        EXPECT_EQ(d.status, v.status);
        if (v.status != Status::due) {
            EXPECT_EQ(d.data, v.data);
        }
    }
    // One block per RS organization; catches fixture truncation.
    EXPECT_EQ(covered, 5u);
}

TEST_P(GoldenVectors, RsSymbolVectorsBatchDecodeAsCommitted)
{
    // Every row of one scheme block through a single decodeBatch
    // call must land on the same frozen outcomes as the element-wise
    // decode above. Rows are replicated past one 256-entry shard
    // batch.
    std::string current_id;
    std::shared_ptr<EntryScheme> scheme;
    Bits288 golden;
    std::vector<const RsSymbolVector*> block;
    const auto checkBlock = [&]() {
        if (block.empty())
            return;
        constexpr std::size_t kReplicas = 40; // 9 rows -> 360 entries
        std::vector<Bits288> received;
        for (std::size_t rep = 0; rep < kReplicas; ++rep)
            for (const RsSymbolVector* v : block)
                received.push_back(applySymbolErrors(
                    current_id, golden, v->symbol_errors));
        std::vector<EntryDecode> out(received.size());
        scheme->decodeBatch(received.data(), out.data(),
                            received.size());
        for (std::size_t i = 0; i < received.size(); ++i) {
            const RsSymbolVector& v = *block[i % block.size()];
            SCOPED_TRACE(std::string(current_id) + " entry=" +
                         std::to_string(i));
            EXPECT_EQ(out[i].status, v.status);
            if (v.status != Status::due) {
                EXPECT_EQ(out[i].data, v.data);
            }
        }
    };
    for (const RsSymbolVector& v : rsSymbolVectors()) {
        if (v.scheme_id != current_id) {
            checkBlock();
            block.clear();
            current_id = v.scheme_id;
            scheme = makeScheme(current_id);
            golden = scheme->encode(kData);
        }
        block.push_back(&v);
    }
    checkBlock();
}

INSTANTIATE_TEST_SUITE_P(Backends, GoldenVectors,
                         ::testing::Values(CodecBackend::compiled,
                                           CodecBackend::reference),
                         [](const auto& info) {
                             return info.param ==
                                            CodecBackend::compiled
                                        ? "compiled"
                                        : "reference";
                         });

} // namespace
} // namespace gpuecc
