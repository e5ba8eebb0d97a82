#include "ecc/rs_scheme.hpp"

#include "common/codec_mode.hpp"
#include "common/log.hpp"
#include "ecc/csc.hpp"
#include "gf256/gf256.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {

namespace {

/**
 * Word-extracted aligned physical byte B (bits [8B, 8B+8)); byte
 * fields never straddle the 64-bit words of a Bits288.
 */
std::uint8_t
physByte(const Bits288& entry, int b)
{
    return static_cast<std::uint8_t>(entry.word(b >> 3)
                                     >> ((b & 7) * 8));
}

/**
 * Word-extracted 4-bit field at bit offset `off` (off % 4 == 0, so
 * the field never straddles a word boundary).
 */
std::uint8_t
physNibble(const Bits288& entry, int off)
{
    return static_cast<std::uint8_t>(
        (entry.word(off >> 6) >> (off & 63)) & 0xf);
}

/** Accumulator for word-level scatter into a physical entry. */
struct EntryWords
{
    std::array<std::uint64_t, Bits288::numWords> w{};

    void
    orField(int off, std::uint64_t value)
    {
        w[off >> 6] |= value << (off & 63);
    }

    Bits288
    toBits() const
    {
        Bits288 out;
        for (int i = 0; i < Bits288::numWords; ++i)
            out.setWord(i, w[i]);
        return out;
    }
};

/** Entry data words -> 32 bytes (little-endian within each word). */
std::array<std::uint8_t, 32>
dataToBytes(const EntryData& data)
{
    std::array<std::uint8_t, 32> bytes{};
    for (int w = 0; w < 4; ++w) {
        for (int j = 0; j < 8; ++j) {
            bytes[8 * w + j] =
                static_cast<std::uint8_t>(data[w] >> (8 * j));
        }
    }
    return bytes;
}

/** 32 bytes -> entry data words. */
EntryData
bytesToData(const std::array<std::uint8_t, 32>& bytes)
{
    EntryData data{};
    for (int w = 0; w < 4; ++w) {
        for (int j = 0; j < 8; ++j) {
            data[w] |= static_cast<std::uint64_t>(bytes[8 * w + j])
                       << (8 * j);
        }
    }
    return data;
}

/** The 64 entry bits from bit `off` on (bits past the entry read 0). */
std::uint64_t
entryBits64(const Bits288& entry, int off)
{
    const int w = off >> 6;
    const int shift = off & 63;
    std::uint64_t v = entry.word(w) >> shift;
    if (shift != 0 && w + 1 < Bits288::numWords)
        v |= entry.word(w + 1) << (64 - shift);
    return v;
}

/** XOR into @p packed the r syndromes of a word whose only nonzero
 *  symbol, at code position pos, has only bit t set: S_j goes to
 *  byte first + j. */
void
addSymbolBit(std::uint32_t& packed, int first, int r, int pos, int t)
{
    for (int j = 0; j < r; ++j) {
        packed ^= static_cast<std::uint32_t>(gf256::mul(
                      static_cast<std::uint8_t>(1u << t),
                      gf256::alphaPow(j * pos)))
                  << (8 * (first + j));
    }
}

/** Per-physical-bit packed syndromes of the I:SSC organization. */
std::array<std::uint32_t, layout::entry_bits>
sscBitSyndromes()
{
    std::array<std::uint32_t, layout::entry_bits> syn{};
    for (int cw = 0; cw < 2; ++cw) {
        for (int pos = 0; pos < 18; ++pos) {
            for (int t = 0; t < 8; ++t) {
                addSymbolBit(
                    syn[InterleavedSscScheme::physicalBit(cw, pos, t)],
                    2 * cw, 2, pos, t);
            }
        }
    }
    return syn;
}

/** Per-physical-bit packed syndromes of the (36, 32) organization. */
std::array<std::uint32_t, layout::entry_bits>
rs3632BitSyndromes()
{
    std::array<std::uint32_t, layout::entry_bits> syn{};
    for (int pos = 0; pos < 36; ++pos) {
        for (int t = 0; t < 8; ++t) {
            addSymbolBit(syn[8 * Rs3632Scheme::physicalByteOf(pos) + t],
                         0, 4, pos, t);
        }
    }
    return syn;
}

/**
 * The data of an I:SSC entry, merged from nibbles. Symbol j of beat
 * pair h in column parity q holds nibble 2j + q of beat 2h (low half)
 * and of beat 2h + 1 (high half): byte j of each beat, shifted by 4q.
 * Codeword cw has parity cw in beat pair 0 (code positions 0..8) and
 * 1 - cw in beat pair 1 (positions 9..17); its data symbols are
 * positions 2..17.
 */
EntryData
sscData(const Bits288& entry)
{
    constexpr std::uint64_t kLowNibbles = 0x0f0f0f0f0f0f0f0full;
    std::uint64_t lo[4]; // bytes 0..7 of each beat
    std::uint64_t hi[4]; // byte 8 of each beat
    for (int beat = 0; beat < 4; ++beat) {
        lo[beat] = entryBits64(entry, layout::beat_bits * beat);
        hi[beat] = entryBits64(entry, layout::beat_bits * beat + 64) & 0xff;
    }
    // Symbols 0..7 of (h, q), one per byte, and symbol 8.
    auto symbols = [&](int h, int q) {
        return ((lo[2 * h] >> (4 * q)) & kLowNibbles)
               | (((lo[2 * h + 1] >> (4 * q)) & kLowNibbles) << 4);
    };
    auto last = [&](int h, int q) {
        return ((hi[2 * h] >> (4 * q)) & 0xf)
               | (((hi[2 * h + 1] >> (4 * q)) & 0xf) << 4);
    };
    EntryData data;
    for (int cw = 0; cw < 2; ++cw) {
        const std::uint64_t s0 = symbols(0, cw);
        const std::uint64_t s1 = symbols(1, 1 - cw);
        data[2 * cw] = (s0 >> 16) | (last(0, cw) << 48) | (s1 << 56);
        data[2 * cw + 1] = (s1 >> 8) | (last(1, 1 - cw) << 56);
    }
    return data;
}

/** XOR a symbol magnitude into data byte `byte` (0..31). */
void
patchDataByte(EntryData& data, int byte, std::uint8_t mag)
{
    data[byte / 8] ^= static_cast<std::uint64_t>(mag) << (8 * (byte % 8));
}

} // namespace

// ---------------------------------------------------------------------
// InterleavedSscScheme
// ---------------------------------------------------------------------

InterleavedSscScheme::InterleavedSscScheme(bool csc)
    : code_(18, 16), csc_(csc), gather_(sscBitSyndromes())
{
}

int
InterleavedSscScheme::physicalBit(int cw, int pos, int t)
{
    // Code position -> (beat-pair h, column c); see the header.
    const int h = pos / 9;
    const int j = pos % 9;
    const int c = 2 * j + ((cw + h) % 2);
    const int beat = 2 * h + t / 4;
    const int pin = 4 * c + t % 4;
    return layout::physicalIndex(beat, pin);
}

std::array<std::vector<std::uint8_t>, 2>
InterleavedSscScheme::gatherCodewords(const Bits288& physical) const
{
    std::array<std::vector<std::uint8_t>, 2> cws;
    const bool reference = useReferenceCodec();
    for (int cw = 0; cw < 2; ++cw) {
        cws[cw].assign(18, 0);
        for (int pos = 0; pos < 18; ++pos) {
            std::uint8_t sym = 0;
            if (reference) {
                for (int t = 0; t < 8; ++t) {
                    sym |= static_cast<std::uint8_t>(
                               physical.get(physicalBit(cw, pos, t)))
                           << t;
                }
            } else {
                // A symbol is one 4-bit column slice of each beat of
                // its beat-pair; both nibbles are word-extractable.
                const int lo = physicalBit(cw, pos, 0);
                const int hi = physicalBit(cw, pos, 4);
                sym = static_cast<std::uint8_t>(
                    physNibble(physical, lo)
                    | (physNibble(physical, hi) << 4));
            }
            cws[cw][pos] = sym;
        }
    }
    return cws;
}

Bits288
InterleavedSscScheme::encode(const EntryData& data) const
{
    const auto bytes = dataToBytes(data);
    const bool reference = useReferenceCodec();
    Bits288 physical;
    EntryWords fast;
    for (int cw = 0; cw < 2; ++cw) {
        std::vector<std::uint8_t> payload(bytes.begin() + 16 * cw,
                                          bytes.begin() + 16 * (cw + 1));
        const std::vector<std::uint8_t> encoded = code_.encode(payload);
        for (int pos = 0; pos < 18; ++pos) {
            if (reference) {
                for (int t = 0; t < 8; ++t) {
                    if ((encoded[pos] >> t) & 1)
                        physical.set(physicalBit(cw, pos, t), 1);
                }
            } else {
                fast.orField(physicalBit(cw, pos, 0),
                             encoded[pos] & 0xfull);
                fast.orField(physicalBit(cw, pos, 4),
                             (encoded[pos] >> 4) & 0xfull);
            }
        }
    }
    return reference ? physical : fast.toBits();
}

EntryDecode
InterleavedSscScheme::decode(const Bits288& received) const
{
    return useReferenceCodec() ? decodeReference(received)
                               : decodeFast(received);
}

/**
 * Allocation-free fast decode: the packed syndromes from the shared
 * gather, correction decisions from fixSscOneShot, and the data
 * merged from nibbles only once the entry is known not to be a DUE.
 * Decision-for-decision identical to the reference path below (the
 * differential tests enforce it).
 */
EntryDecode
InterleavedSscScheme::decodeFast(const Bits288& received) const
{
    const std::uint32_t syn = gather_.syndrome(received);
    RsFix fixes[2] = {};
    int num_correcting = 0;
    if (syn != 0) {
        for (int cw = 0; cw < 2; ++cw) {
            const std::uint8_t s[2] = {
                static_cast<std::uint8_t>(syn >> (16 * cw)),
                static_cast<std::uint8_t>(syn >> (16 * cw + 8))};
            fixes[cw] = fixSscOneShot(18, s);
            if (fixes[cw].status == RsDecode::Status::due)
                return {EntryDecode::Status::due, EntryData{}};
            if (fixes[cw].status == RsDecode::Status::corrected)
                ++num_correcting;
        }

        if (csc_ && num_correcting >= 2) {
            EntryWords corrected;
            for (int cw = 0; cw < 2; ++cw) {
                for (int e = 0; e < fixes[cw].num_errors; ++e) {
                    const int pos = fixes[cw].pos[e];
                    const std::uint64_t mag = fixes[cw].mag[e];
                    corrected.orField(physicalBit(cw, pos, 0), mag & 0xf);
                    corrected.orField(physicalBit(cw, pos, 4),
                                      (mag >> 4) & 0xf);
                }
            }
            if (!correctionSanityCheckPasses(corrected.toBits()))
                return {EntryDecode::Status::due, EntryData{}};
        }
    }

    EntryData data = sscData(received);
    for (int cw = 0; cw < 2; ++cw) {
        for (int e = 0; e < fixes[cw].num_errors; ++e) {
            if (fixes[cw].pos[e] >= 2) {
                patchDataByte(data, 16 * cw + fixes[cw].pos[e] - 2,
                              fixes[cw].mag[e]);
            }
        }
    }
    return {num_correcting ? EntryDecode::Status::corrected
                           : EntryDecode::Status::clean,
            data};
}

EntryDecode
InterleavedSscScheme::decodeReference(const Bits288& received) const
{
    const auto cws = gatherCodewords(received);
    std::array<RsDecode, 2> results;
    int num_correcting = 0;
    for (int cw = 0; cw < 2; ++cw) {
        results[cw] = decodeSscOneShot(code_, cws[cw]);
        if (results[cw].status == RsDecode::Status::due)
            return {EntryDecode::Status::due, EntryData{}};
        if (results[cw].status == RsDecode::Status::corrected)
            ++num_correcting;
    }

    if (csc_ && num_correcting >= 2) {
        Bits288 corrected_physical;
        for (int cw = 0; cw < 2; ++cw) {
            for (int pos : results[cw].error_positions) {
                const std::uint8_t magnitude = static_cast<std::uint8_t>(
                    results[cw].word[pos] ^ cws[cw][pos]);
                for (int t = 0; t < 8; ++t) {
                    if ((magnitude >> t) & 1)
                        corrected_physical.set(physicalBit(cw, pos, t), 1);
                }
            }
        }
        if (!correctionSanityCheckPasses(corrected_physical))
            return {EntryDecode::Status::due, EntryData{}};
    }

    std::array<std::uint8_t, 32> bytes{};
    for (int cw = 0; cw < 2; ++cw) {
        for (int pos = 2; pos < 18; ++pos)
            bytes[16 * cw + (pos - 2)] = results[cw].word[pos];
    }
    return {num_correcting ? EntryDecode::Status::corrected
                           : EntryDecode::Status::clean,
            bytesToData(bytes)};
}

void
InterleavedSscScheme::decodeBatch(const Bits288* received,
                                  EntryDecode* out, std::size_t n) const
{
    if (useReferenceCodec()) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = decodeReference(received[i]);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        out[i] = decodeFast(received[i]);
}

EntryDecode
InterleavedSscScheme::decodeWithPinErasure(const Bits288& received,
                                           int pin) const
{
    require(pin >= 0 && pin < layout::num_pins,
            "decodeWithPinErasure: bad pin");
    const auto cws = gatherCodewords(received);
    const int column = pin / 4;

    std::array<RsDecode, 2> results;
    for (int h = 0; h < 2; ++h) {
        const int cw = (column + h) % 2;
        const int pos = 9 * h + column / 2;
        results[cw] = decodeWithErasures(code_, cws[cw], {pos});
        if (results[cw].status == RsDecode::Status::due)
            return {EntryDecode::Status::due, EntryData{}};
    }

    std::array<std::uint8_t, 32> bytes{};
    bool any = false;
    for (int cw = 0; cw < 2; ++cw) {
        any = any || results[cw].status == RsDecode::Status::corrected;
        for (int pos = 2; pos < 18; ++pos)
            bytes[16 * cw + (pos - 2)] = results[cw].word[pos];
    }
    return {any ? EntryDecode::Status::corrected
                : EntryDecode::Status::clean,
            bytesToData(bytes)};
}

// ---------------------------------------------------------------------
// Rs3632Scheme
// ---------------------------------------------------------------------

Rs3632Scheme::Rs3632Scheme(Decoder decoder)
    : code_(36, 32), decoder_(decoder), gather_(rs3632BitSyndromes())
{
}

std::string
Rs3632Scheme::id() const
{
    switch (decoder_) {
      case Decoder::sscDsdPlus: return "ssc-dsd+";
      case Decoder::sscTsd: return "ssc-tsd";
      case Decoder::dsc: return "dsc";
    }
    panic("unreachable Rs3632Scheme::id");
}

std::string
Rs3632Scheme::name() const
{
    switch (decoder_) {
      case Decoder::sscDsdPlus: return "SSC-DSD+";
      case Decoder::sscTsd: return "SSC-TSD (36,32)";
      case Decoder::dsc: return "DSC (36,32)";
    }
    panic("unreachable Rs3632Scheme::name");
}

int
Rs3632Scheme::physicalByteOf(int pos)
{
    // Check symbols (positions 0..3) take the first byte of each
    // beat; data symbols fill the remaining bytes in order.
    if (pos < 4)
        return 9 * pos;
    const int d = pos - 4;     // data symbol index 0..31
    const int beat = d / 8;
    return 9 * beat + 1 + d % 8;
}

Bits288
Rs3632Scheme::encode(const EntryData& data) const
{
    const auto bytes = dataToBytes(data);
    const std::vector<std::uint8_t> payload(bytes.begin(), bytes.end());
    const std::vector<std::uint8_t> encoded = code_.encode(payload);
    if (!useReferenceCodec()) {
        EntryWords fast;
        for (int pos = 0; pos < 36; ++pos)
            fast.orField(8 * physicalByteOf(pos), encoded[pos]);
        return fast.toBits();
    }
    Bits288 physical;
    for (int pos = 0; pos < 36; ++pos) {
        const int base = 8 * physicalByteOf(pos);
        for (int t = 0; t < 8; ++t) {
            if ((encoded[pos] >> t) & 1)
                physical.set(base + t, 1);
        }
    }
    return physical;
}

EntryDecode
Rs3632Scheme::decode(const Bits288& received) const
{
    return useReferenceCodec() ? decodeReference(received)
                               : decodeFast(received);
}

/**
 * Allocation-free fast decode: the packed syndromes from the shared
 * gather, correction decisions from the fix functions, and the data
 * shifted out of the entry's words only once the entry is known not
 * to be a DUE. Decision-for-decision identical to the reference path
 * below (the differential tests enforce it).
 */
EntryDecode
Rs3632Scheme::decodeFast(const Bits288& received) const
{
    const std::uint32_t syn = gather_.syndrome(received);
    RsFix fix{};
    if (syn != 0) {
        const std::uint8_t s[4] = {static_cast<std::uint8_t>(syn),
                                   static_cast<std::uint8_t>(syn >> 8),
                                   static_cast<std::uint8_t>(syn >> 16),
                                   static_cast<std::uint8_t>(syn >> 24)};
        fix = decoder_ == Decoder::dsc ? fixDsc(36, s)
                                       : fixSscDsdPlus(36, s);
        if (fix.status == RsDecode::Status::due)
            return {EntryDecode::Status::due, EntryData{}};
    }

    // Data symbols 8k..8k+7 are bytes 1..8 of beat k.
    EntryData data;
    for (int k = 0; k < 4; ++k)
        data[k] = entryBits64(received, layout::beat_bits * k + 8);
    for (int e = 0; e < fix.num_errors; ++e) {
        if (fix.pos[e] >= 4)
            patchDataByte(data, fix.pos[e] - 4, fix.mag[e]);
    }
    return {fix.status == RsDecode::Status::corrected
                ? EntryDecode::Status::corrected
                : EntryDecode::Status::clean,
            data};
}

EntryDecode
Rs3632Scheme::decodeReference(const Bits288& received) const
{
    std::vector<std::uint8_t> word(36, 0);
    for (int pos = 0; pos < 36; ++pos) {
        const int base = 8 * physicalByteOf(pos);
        std::uint8_t sym = 0;
        for (int t = 0; t < 8; ++t) {
            sym |= static_cast<std::uint8_t>(received.get(base + t))
                   << t;
        }
        word[pos] = sym;
    }

    RsDecode result = decoder_ == Decoder::dsc
        ? decodeDsc(code_, word)
        : decodeSscDsdPlus(code_, word);
    if (result.status == RsDecode::Status::due)
        return {EntryDecode::Status::due, EntryData{}};

    std::array<std::uint8_t, 32> bytes{};
    for (int pos = 4; pos < 36; ++pos)
        bytes[pos - 4] = result.word[pos];
    return {result.status == RsDecode::Status::corrected
                ? EntryDecode::Status::corrected
                : EntryDecode::Status::clean,
            bytesToData(bytes)};
}

void
Rs3632Scheme::decodeBatch(const Bits288* received, EntryDecode* out,
                          std::size_t n) const
{
    if (useReferenceCodec()) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = decodeReference(received[i]);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        out[i] = decodeFast(received[i]);
}

EntryDecode
Rs3632Scheme::decodeWithPinErasure(const Bits288& received,
                                   int pin) const
{
    require(pin >= 0 && pin < layout::num_pins,
            "decodeWithPinErasure: bad pin");

    std::vector<std::uint8_t> word(36, 0);
    std::array<int, 36> pos_of_byte{};
    const bool reference = useReferenceCodec();
    for (int pos = 0; pos < 36; ++pos) {
        pos_of_byte[physicalByteOf(pos)] = pos;
        if (reference) {
            const int base = 8 * physicalByteOf(pos);
            std::uint8_t sym = 0;
            for (int t = 0; t < 8; ++t) {
                sym |= static_cast<std::uint8_t>(received.get(base + t))
                       << t;
            }
            word[pos] = sym;
        } else {
            word[pos] = physByte(received, physicalByteOf(pos));
        }
    }

    // The pin crosses one physical byte per beat.
    std::vector<int> erasures;
    for (int beat = 0; beat < layout::num_beats; ++beat)
        erasures.push_back(pos_of_byte[9 * beat + pin / 8]);

    const RsDecode result = decodeWithErasures(code_, word, erasures);
    if (result.status == RsDecode::Status::due)
        return {EntryDecode::Status::due, EntryData{}};

    std::array<std::uint8_t, 32> bytes{};
    for (int pos = 4; pos < 36; ++pos)
        bytes[pos - 4] = result.word[pos];
    return {result.status == RsDecode::Status::corrected
                ? EntryDecode::Status::corrected
                : EntryDecode::Status::clean,
            bytesToData(bytes)};
}

} // namespace gpuecc
