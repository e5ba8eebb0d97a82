/**
 * @file
 * Compiled entry-level codec for the binary (72, 64)x4 organizations.
 *
 * At scheme construction the codec lowers the whole decode pipeline
 * of a binary entry scheme into tables over the physical 288-bit
 * entry: the shared per-byte syndrome gather (ecc/syndrome_gather.hpp)
 * packs the four codeword syndromes, a 36 x 256 data table extracts
 * the four data words, and 4 x 256 fix tables hold each codeword's
 * syndrome->correction logic. Decode gathers the syndrome over the
 * entry's nonzero bytes, returns a DUE before touching data, and
 * extracts data only for clean or corrected entries. Encode is
 * likewise lowered into a 32 x 256-entry scatter table from data
 * bytes to physical entries.
 *
 * Outcomes are provably identical to the reference path: every table
 * entry is the XOR-fold of exact per-bit contributions of the same
 * linear maps the reference evaluates bit-by-bit, the fix tables are
 * images of Code72's syndrome->outcome table under the layout
 * permutation, and the correction sanity check is evaluated with the
 * very same correctionSanityCheckPasses() predicate on the same
 * corrected-bit set. tests/test_differential_codec.cpp enforces this
 * bit-for-bit against the reference decoder.
 */

#ifndef GPUECC_ECC_COMPILED_CODEC_HPP
#define GPUECC_ECC_COMPILED_CODEC_HPP

#include <array>
#include <cstdint>
#include <memory>

#include "codes/linear_code.hpp"
#include "ecc/scheme.hpp"
#include "ecc/syndrome_gather.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {

/** Table-compiled encode/decode for one binary entry organization. */
class CompiledBinaryCodec
{
  public:
    /**
     * Compile the tables for one (code, layout, mode, csc) pipeline.
     *
     * @param code   the inner (72, 64) code (kept alive by the owner)
     * @param layout the physical bit arrangement
     * @param mode   decode mode baked into the fix tables
     * @param csc    apply the correction sanity check when >= 2
     *               codewords correct
     */
    CompiledBinaryCodec(std::shared_ptr<const Code72> code,
                        const EntryLayout& layout, Code72::Mode mode,
                        bool csc);

    /** Encode 32B of data: 32 scatter-table lookups. */
    Bits288 encode(const EntryData& data) const;

    /** Decode a physical entry: syndrome gather, fixes, then data. */
    EntryDecode decode(const Bits288& received) const;

  private:
    /** Per-(codeword, syndrome) correction. */
    struct Fix
    {
        /** Detected-yet-uncorrectable syndrome. */
        bool due;
        /** XOR fix on the codeword's data word (bits < 64 only). */
        std::uint64_t data_fix;
        /** Corrected physical positions (CSC input); -1 = unused. */
        std::array<std::int16_t, 2> phys;
    };

    std::shared_ptr<const Code72> code_; //!< keeps the tables' source alive
    bool csc_;
    /** Packed syndromes: byte c holds codeword c's syndrome. */
    SyndromeGather gather_;
    /** Per-physical-byte contribution to the four data words. */
    std::array<std::array<EntryData, 256>, layout::num_bytes> data_;
    std::array<std::array<Fix, 256>, layout::num_codewords> fix_;
    /** Data byte -> physical-entry contribution (data + check bits). */
    std::array<std::array<Bits288, 256>, 32> enc_;
};

} // namespace gpuecc

#endif // GPUECC_ECC_COMPILED_CODEC_HPP
