#include "ecc/compiled_codec.hpp"

#include "common/log.hpp"
#include "ecc/csc.hpp"

namespace gpuecc {

namespace {

/** Packed syndrome of each physical bit: byte cw holds codeword cw's. */
std::array<std::uint32_t, layout::entry_bits>
bitSyndromes(const std::shared_ptr<const Code72>& code,
             const EntryLayout& layout)
{
    require(code != nullptr, "CompiledBinaryCodec needs a code");
    std::array<std::uint32_t, layout::entry_bits> syn{};
    for (int p = 0; p < layout::entry_bits; ++p) {
        const auto [cw, bit] = layout.logicalFor(p);
        syn[p] = static_cast<std::uint32_t>(code->columnSyndrome(bit))
                 << (8 * cw);
    }
    return syn;
}

} // namespace

CompiledBinaryCodec::CompiledBinaryCodec(
    std::shared_ptr<const Code72> code, const EntryLayout& layout,
    Code72::Mode mode, bool csc)
    : code_(std::move(code)), csc_(csc),
      gather_(bitSyndromes(code_, layout)), data_{}, fix_{}, enc_{}
{
    // Data tables: each physical bit's place in the extracted data
    // words, XOR-folded over each byte's 256 values with the
    // strip-lowest-bit recurrence.
    for (int b = 0; b < layout::num_bytes; ++b) {
        std::array<EntryData, 8> col{};
        for (int t = 0; t < 8; ++t) {
            const auto [cw, bit] = layout.logicalFor(8 * b + t);
            if (bit < Code72::k)
                col[t][cw] = bit64(bit);
        }
        auto& row = data_[b];
        for (unsigned v = 1; v < 256; ++v) {
            const int low = std::countr_zero(v);
            for (int w = 0; w < 4; ++w)
                row[v][w] = row[v & (v - 1)][w] ^ col[low][w];
        }
    }

    // Fix tables: the image of Code72's syndrome->outcome table under
    // the layout permutation, one per codeword slot.
    for (int cw = 0; cw < layout::num_codewords; ++cw) {
        for (int s = 0; s < 256; ++s) {
            const CodewordDecode& d = code_->outcomeForSyndrome(
                static_cast<std::uint8_t>(s), mode);
            Fix f{};
            f.due = d.status == CodewordDecode::Status::due;
            f.data_fix = d.correction.word(0);
            f.phys = {-1, -1};
            int i = 0;
            d.correction.forEachSetBit([&](int bit) {
                f.phys[i++] = static_cast<std::int16_t>(
                    layout.physicalFor(cw, bit));
            });
            fix_[cw][s] = f;
        }
    }

    // Encode scatter tables: the physical image (data placement plus
    // check contributions) of each data bit, folded per data byte.
    // code_->encode is linear, so encode(bit) is exactly bit's column.
    for (int b = 0; b < 32; ++b) {
        const int cw = b / 8;
        std::array<Bits288, 8> col{};
        for (int t = 0; t < 8; ++t) {
            const Bits72 cw_col =
                code_->encodeCompiled(bit64(8 * (b % 8) + t));
            cw_col.forEachSetBit([&](int bit) {
                col[t].set(layout.physicalFor(cw, bit), 1);
            });
        }
        auto& row = enc_[b];
        for (int v = 1; v < 256; ++v) {
            const int low =
                std::countr_zero(static_cast<unsigned>(v));
            row[v] = row[v & (v - 1)] ^ col[low];
        }
    }
}

Bits288
CompiledBinaryCodec::encode(const EntryData& data) const
{
    Bits288 physical;
    for (int w = 0; w < 4; ++w) {
        for (int j = 0; j < 8; ++j)
            physical ^= enc_[8 * w + j][(data[w] >> (8 * j)) & 0xff];
    }
    return physical;
}

EntryDecode
CompiledBinaryCodec::decode(const Bits288& received) const
{
    const std::uint32_t syn = gather_.syndrome(received);
    const Fix* fixes[4] = {};
    if (syn != 0) {
        int num_correcting = 0;
        for (int cw = 0; cw < 4; ++cw) {
            const std::uint8_t s =
                static_cast<std::uint8_t>(syn >> (8 * cw));
            if (s == 0)
                continue;
            const Fix& f = fix_[cw][s];
            if (f.due)
                return {EntryDecode::Status::due, EntryData{}};
            fixes[cw] = &f;
            ++num_correcting;
        }

        if (csc_ && num_correcting >= 2) {
            // Same predicate, same corrected-bit set as the reference.
            Bits288 corrected_physical;
            for (int cw = 0; cw < 4; ++cw) {
                if (!fixes[cw])
                    continue;
                for (int p : fixes[cw]->phys) {
                    if (p >= 0)
                        corrected_physical.set(p, 1);
                }
            }
            if (!correctionSanityCheckPasses(corrected_physical))
                return {EntryDecode::Status::due, EntryData{}};
        }
    }

    EntryData data{};
    forEachEntryByte(received, [&](int b, unsigned v) {
        const EntryData& d = data_[b][v];
        data[0] ^= d[0];
        data[1] ^= d[1];
        data[2] ^= d[2];
        data[3] ^= d[3];
    });
    for (int cw = 0; cw < 4; ++cw) {
        if (fixes[cw])
            data[cw] ^= fixes[cw]->data_fix;
    }
    return {syn != 0 ? EntryDecode::Status::corrected
                     : EntryDecode::Status::clean,
            data};
}

} // namespace gpuecc
