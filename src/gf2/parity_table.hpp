/**
 * @file
 * Byte-indexed XOR lookup tables compiled from GF(2) linear maps.
 *
 * A matrix-vector product over GF(2) with R <= 64 output bits can be
 * lowered, at construction time, into one 256-entry table per input
 * byte: entry [b][v] holds the packed output contribution of input
 * byte b taking value v, so applying the map to an N-bit vector is
 * ceil(N/8) table lookups XORed together instead of R word-parallel
 * inner products. This is the table compiler behind the compiled
 * codec fast path: Code72 lowers its parity-check matrix into a
 * 9-byte syndrome table. The entry-level codecs fold their packed
 * 32-bit syndromes the same way into a 36-byte table of their own
 * (ecc/syndrome_gather.hpp), which also skips zero bytes.
 *
 * The lowering is provably exact: the map is linear, the bytes
 * partition the input bits, and each table entry is itself built by
 * XOR-folding the packed matrix columns of the byte's set bits, so
 * apply() computes the identical GF(2) sum the reference
 * matrix-vector product does, merely re-associated.
 */

#ifndef GPUECC_GF2_PARITY_TABLE_HPP
#define GPUECC_GF2_PARITY_TABLE_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "gf2/matrix.hpp"

namespace gpuecc {

/**
 * Compiled byte-parallel form of a GF(2) linear map with NIn input
 * bits and up to 64 output bits (packed LSB-first in a uint64).
 */
template <int NIn>
class ByteParityTable
{
  public:
    static constexpr int num_bytes = (NIn + 7) / 8;

    /** The all-zero map (placeholder until a compiled one is assigned). */
    ByteParityTable() : table_{} {}

    /**
     * Compile from the packed columns of the map: `columns[c]` holds
     * output bit r in bit r, i.e. column c of the matrix.
     */
    static ByteParityTable
    fromColumnWords(const std::vector<std::uint64_t>& columns)
    {
        require(static_cast<int>(columns.size()) == NIn,
                "ByteParityTable: column count must match input width");
        ByteParityTable t;
        for (int b = 0; b < num_bytes; ++b) {
            // Subset-XOR dynamic program: strip the lowest set bit so
            // every entry is one XOR on top of an already-built one.
            std::array<std::uint64_t, 8> col{};
            for (int j = 0; j < 8 && 8 * b + j < NIn; ++j)
                col[j] = columns[8 * b + j];
            t.table_[b][0] = 0;
            for (int v = 1; v < 256; ++v) {
                const int low = std::countr_zero(
                    static_cast<unsigned>(v));
                t.table_[b][v] = t.table_[b][v & (v - 1)] ^ col[low];
            }
        }
        return t;
    }

    /** Compile from a matrix (rows <= 64, cols == NIn). */
    static ByteParityTable
    fromMatrix(const Gf2Matrix& m)
    {
        require(m.rows() <= 64 && m.cols() == NIn,
                "ByteParityTable: matrix shape mismatch");
        std::vector<std::uint64_t> columns(NIn);
        for (int c = 0; c < NIn; ++c)
            columns[c] = m.columnWord(c);
        return fromColumnWords(columns);
    }

    /** Apply the compiled map to an N-bit vector. */
    std::uint64_t
    apply(const Bits<NIn>& in) const
    {
        std::uint64_t acc = 0;
        for (int b = 0; b < num_bytes; ++b) {
            const std::uint64_t byte =
                (in.word(b >> 3) >> ((b & 7) * 8)) & 0xff;
            acc ^= table_[b][byte];
        }
        return acc;
    }

    /**
     * Apply to a packed word input (only meaningful for NIn <= 64);
     * used by encoders whose input is a plain data word.
     */
    std::uint64_t
    applyWord(std::uint64_t in) const
    {
        static_assert(NIn <= 64,
                      "applyWord requires a single-word input");
        std::uint64_t acc = 0;
        for (int b = 0; b < num_bytes; ++b)
            acc ^= table_[b][(in >> (8 * b)) & 0xff];
        return acc;
    }

    /** Raw table row for byte b (used by tests and memory audits). */
    const std::array<std::uint64_t, 256>&
    byteRow(int b) const
    {
        return table_[b];
    }

    /** Total table footprint in bytes. */
    static constexpr std::size_t
    memoryBytes()
    {
        return static_cast<std::size_t>(num_bytes) * 256
               * sizeof(std::uint64_t);
    }

  private:
    std::array<std::array<std::uint64_t, 256>, num_bytes> table_;
};

} // namespace gpuecc

#endif // GPUECC_GF2_PARITY_TABLE_HPP
