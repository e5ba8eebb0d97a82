/**
 * @file
 * The per-physical-byte syndrome gather every compiled codec shares.
 *
 * Every organization here is a linear code over the 288-bit physical
 * entry, so its syndrome is the XOR of per-bit contributions. Packed
 * into 32 bits (four 8-bit binary syndromes, two pairs of RS(18, 16)
 * syndromes, or the four RS(36, 32) syndromes), those contributions
 * fold into one 36 x 256 table: byte b with value v contributes
 * table[b][v], and an entry's syndrome is the XOR over its bytes.
 *
 * The campaign kernel decodes error masks, not data (DESIGN §8): a
 * Table 1 pattern touches at most four of the 36 bytes outside the
 * beat and entry classes. forEachEntryByte() therefore visits only
 * the nonzero bytes of a sparse 64-bit word and sweeps a dense word
 * straight through, so the gather costs what the error touches.
 */

#ifndef GPUECC_ECC_SYNDROME_GATHER_HPP
#define GPUECC_ECC_SYNDROME_GATHER_HPP

#include <array>
#include <bit>
#include <cstdint>

#include "common/bits.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {

/**
 * Nonzero bytes at or below which a 64-bit entry word is walked byte
 * by byte; a word with more is swept through all of its bytes.
 */
constexpr int kSparseWordBytes = 4;

/**
 * Call fn(b, v) for physical bytes b of @p entry with value v: every
 * nonzero byte, and the zero bytes of a dense word (where a zero
 * byte's table row 0 contributes nothing). Zero words are skipped.
 */
template <typename Fn>
inline void
forEachEntryByte(const Bits288& entry, Fn&& fn)
{
    constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
    for (int w = 0; w < Bits288::numWords; ++w) {
        const std::uint64_t word = entry.word(w);
        if (word == 0)
            continue;
        // High bit of each nonzero byte, then their count in the top
        // byte of the product (std::popcount is a libcall here).
        std::uint64_t nz = (((word & kLow7) + kLow7) | word) & ~kLow7;
        const int count =
            static_cast<int>(((nz >> 7) * 0x0101010101010101ull) >> 56);
        if (count <= kSparseWordBytes) {
            do {
                const int i = std::countr_zero(nz) >> 3;
                fn(8 * w + i,
                   static_cast<unsigned>((word >> (8 * i)) & 0xff));
                nz &= nz - 1;
            } while (nz);
        } else {
            for (int i = 0; i < 8; ++i) {
                fn(8 * w + i,
                   static_cast<unsigned>((word >> (8 * i)) & 0xff));
            }
        }
    }
}

/** 36 x 256 packed 32-bit syndromes of every physical byte value. */
class SyndromeGather
{
  public:
    /**
     * Fold per-bit contributions: @p bit_syndrome[p] is the packed
     * syndrome of physical bit p alone. Each byte's row is built by
     * the strip-lowest-bit recurrence, one XOR per value.
     */
    explicit SyndromeGather(
        const std::array<std::uint32_t, layout::entry_bits>&
            bit_syndrome)
        : table_{}
    {
        for (int b = 0; b < layout::num_bytes; ++b) {
            auto& row = table_[b];
            for (unsigned v = 1; v < 256; ++v) {
                row[v] = row[v & (v - 1)]
                         ^ bit_syndrome[8 * b + std::countr_zero(v)];
            }
        }
    }

    /** The packed syndrome of @p entry. */
    std::uint32_t
    syndrome(const Bits288& entry) const
    {
        std::uint32_t syn = 0;
        forEachEntryByte(entry, [&](int b, unsigned v) {
            syn ^= table_[b][v];
        });
        return syn;
    }

  private:
    std::array<std::array<std::uint32_t, 256>, layout::num_bytes>
        table_;
};

} // namespace gpuecc

#endif // GPUECC_ECC_SYNDROME_GATHER_HPP
