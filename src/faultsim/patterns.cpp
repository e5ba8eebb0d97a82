#include "faultsim/patterns.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {

const std::array<ErrorPattern, numErrorPatterns>&
allErrorPatterns()
{
    static const std::array<ErrorPattern, numErrorPatterns> all = {
        ErrorPattern::oneBit,    ErrorPattern::onePin,
        ErrorPattern::oneByte,   ErrorPattern::twoBits,
        ErrorPattern::threeBits, ErrorPattern::oneBeat,
        ErrorPattern::wholeEntry,
    };
    return all;
}

const std::array<PatternInfo, numErrorPatterns>&
patternTable()
{
    // Table 1: Soft Error Pattern Probabilities.
    static const std::array<PatternInfo, numErrorPatterns> table = {{
        {ErrorPattern::oneBit, "1 Bit", "1", 0.7398},
        {ErrorPattern::onePin, "1 Pin", "2-4", 0.0019},
        {ErrorPattern::oneByte, "1 Byte", "2-8", 0.2256},
        {ErrorPattern::twoBits, "2 Bits", "2", 0.0011},
        {ErrorPattern::threeBits, "3 Bits", "3", 0.0003},
        {ErrorPattern::oneBeat, "1 Beat", "4-64", 0.0090},
        {ErrorPattern::wholeEntry, "1 Entry", "4-256", 0.0223},
    }};
    return table;
}

const PatternInfo&
patternInfo(ErrorPattern p)
{
    for (const PatternInfo& info : patternTable()) {
        if (info.pattern == p)
            return info;
    }
    panic("patternInfo: unknown pattern");
}

namespace {

/** One all-ones mask per beat. */
constexpr std::array<Bits288, layout::num_beats> kBeatMasks = [] {
    std::array<Bits288, layout::num_beats> masks{};
    for (int phys = 0; phys < layout::entry_bits; ++phys)
        masks[layout::beatOf(phys)].set(phys, 1);
    return masks;
}();

/** Whether every set bit of a nonempty mask lies in one beat. */
bool
withinOneBeat(const Bits288& mask)
{
    const Bits288& beat = kBeatMasks[layout::beatOf(mask.lowestSetBit())];
    return (mask & beat) == mask;
}

} // namespace

ErrorPattern
classifyErrorMask(const Bits288& mask)
{
    const int bits = mask.popcount();
    require(bits > 0, "classifyErrorMask: empty mask");
    if (bits == 1)
        return ErrorPattern::oneBit;
    // A pin holds 4 bits and a byte 8, so a wider mask is neither,
    // nor 2 or 3 bits: beat occupancy alone decides it. Sampled beat
    // and entry masks (~36 and ~144 bits) take this path.
    if (bits > 8) {
        return withinOneBeat(mask) ? ErrorPattern::oneBeat
                                   : ErrorPattern::wholeEntry;
    }

    bool same_pin = true;
    bool same_byte = true;
    bool same_beat = true;
    int first = -1;
    mask.forEachSetBit([&](int phys) {
        if (first < 0) {
            first = phys;
            return;
        }
        if (layout::pinOf(phys) != layout::pinOf(first))
            same_pin = false;
        if (layout::byteOf(phys) != layout::byteOf(first))
            same_byte = false;
        if (layout::beatOf(phys) != layout::beatOf(first))
            same_beat = false;
    });

    // Priority order per Table 1: easier shapes win.
    if (same_pin)
        return ErrorPattern::onePin;
    if (same_byte)
        return ErrorPattern::oneByte;
    if (bits == 2)
        return ErrorPattern::twoBits;
    if (bits == 3)
        return ErrorPattern::threeBits;
    if (same_beat)
        return ErrorPattern::oneBeat;
    return ErrorPattern::wholeEntry;
}

namespace {

/**
 * 1 <= @p n <= 64 fair coin flips from one draw: its low @p n bits,
 * bit i of the draw as flip i. Every output bit of xoshiro256** is
 * uniform, so one draw serves a whole word segment (sampler
 * version 2).
 */
std::uint64_t
drawBits(int n, Rng& rng)
{
    const std::uint64_t draw = rng.next64();
    return n == 64 ? draw : draw & ((std::uint64_t{1} << n) - 1);
}

/** Pin @p pin's bits in the beats set in @p beats (bit b = beat b). */
Bits288
pinMask(int pin, std::uint64_t beats)
{
    Bits288 mask;
    for (int beat = 0; beat < layout::num_beats; ++beat) {
        if ((beats >> beat) & 1)
            mask.set(layout::physicalIndex(beat, pin), 1);
    }
    return mask;
}

/** Random corruption of a contiguous region, conditioned on shape. */
Bits288
sampleRegion(ErrorPattern target, int region_lo, int region_bits,
             Rng& rng)
{
    for (;;) {
        // Fill the region word by word, one draw per word segment.
        Bits288 mask;
        for (int pos = region_lo, end = region_lo + region_bits;
             pos < end;) {
            const int shift = pos & 63;
            const int len = std::min(64 - shift, end - pos);
            mask.setWord(pos >> 6, drawBits(len, rng) << shift);
            pos += len;
        }
        if (!mask.none() && classifyErrorMask(mask) == target)
            return mask;
    }
}

/** Random corruption of one pin (its 4 per-beat bits). */
Bits288
samplePin(Rng& rng)
{
    const int pin = static_cast<int>(rng.nextBounded(layout::num_pins));
    for (;;) {
        const std::uint64_t beats = drawBits(layout::num_beats, rng);
        if (popcount64(beats) >= 2)
            return pinMask(pin, beats);
    }
}

} // namespace

Bits288
sampleErrorMask(ErrorPattern p, Rng& rng)
{
    switch (p) {
      case ErrorPattern::oneBit: {
        Bits288 mask;
        mask.set(static_cast<int>(rng.nextBounded(layout::entry_bits)), 1);
        return mask;
      }
      case ErrorPattern::onePin:
        return samplePin(rng);
      case ErrorPattern::oneByte: {
        const int byte =
            static_cast<int>(rng.nextBounded(layout::num_bytes));
        return sampleRegion(ErrorPattern::oneByte, 8 * byte, 8, rng);
      }
      case ErrorPattern::twoBits:
      case ErrorPattern::threeBits: {
        const int want = p == ErrorPattern::twoBits ? 2 : 3;
        for (;;) {
            Bits288 mask;
            while (mask.popcount() < want) {
                mask.set(static_cast<int>(
                             rng.nextBounded(layout::entry_bits)),
                         1);
            }
            if (classifyErrorMask(mask) == p)
                return mask;
        }
      }
      case ErrorPattern::oneBeat: {
        const int beat =
            static_cast<int>(rng.nextBounded(layout::num_beats));
        return sampleRegion(ErrorPattern::oneBeat,
                            layout::beat_bits * beat, layout::beat_bits,
                            rng);
      }
      case ErrorPattern::wholeEntry:
        return sampleRegion(ErrorPattern::wholeEntry, 0,
                            layout::entry_bits, rng);
    }
    panic("sampleErrorMask: unknown pattern");
}

bool
patternIsEnumerable(ErrorPattern p)
{
    return p != ErrorPattern::oneBeat && p != ErrorPattern::wholeEntry;
}

std::uint64_t
enumerationOuterSize(ErrorPattern p)
{
    switch (p) {
      case ErrorPattern::oneBit:
        return layout::entry_bits;
      case ErrorPattern::onePin:
        return layout::num_pins;
      case ErrorPattern::oneByte:
        return layout::num_bytes;
      case ErrorPattern::twoBits:
      case ErrorPattern::threeBits:
        // Sharded by the first (lowest) erroneous bit position.
        return layout::entry_bits;
      default:
        fatal("enumerationOuterSize: pattern is not enumerable");
    }
}

std::uint64_t
forEachErrorMaskInRange(ErrorPattern p, std::uint64_t begin,
                        std::uint64_t end,
                        const std::function<void(const Bits288&)>& fn)
{
    require(begin <= end && end <= enumerationOuterSize(p),
            "forEachErrorMaskInRange: bad outer slot range");
    const int lo = static_cast<int>(begin);
    const int hi = static_cast<int>(end);
    std::uint64_t count = 0;
    switch (p) {
      case ErrorPattern::oneBit: {
        for (int i = lo; i < hi; ++i) {
            Bits288 mask;
            mask.set(i, 1);
            fn(mask);
            ++count;
        }
        return count;
      }
      case ErrorPattern::onePin: {
        for (int pin = lo; pin < hi; ++pin) {
            for (unsigned m = 1; m < 16; ++m) {
                if (popcount64(m) < 2)
                    continue;
                fn(pinMask(pin, m));
                ++count;
            }
        }
        return count;
      }
      case ErrorPattern::oneByte: {
        for (int byte = lo; byte < hi; ++byte) {
            for (unsigned m = 1; m < 256; ++m) {
                if (popcount64(m) < 2)
                    continue;
                Bits288 mask;
                for (int t = 0; t < 8; ++t) {
                    if ((m >> t) & 1)
                        mask.set(8 * byte + t, 1);
                }
                fn(mask);
                ++count;
            }
        }
        return count;
      }
      case ErrorPattern::twoBits: {
        for (int a = lo; a < hi; ++a) {
            for (int b = a + 1; b < layout::entry_bits; ++b) {
                Bits288 mask;
                mask.set(a, 1);
                mask.set(b, 1);
                if (classifyErrorMask(mask) != ErrorPattern::twoBits)
                    continue;
                fn(mask);
                ++count;
            }
        }
        return count;
      }
      case ErrorPattern::threeBits: {
        for (int a = lo; a < hi; ++a) {
            for (int b = a + 1; b < layout::entry_bits; ++b) {
                for (int c = b + 1; c < layout::entry_bits; ++c) {
                    Bits288 mask;
                    mask.set(a, 1);
                    mask.set(b, 1);
                    mask.set(c, 1);
                    if (classifyErrorMask(mask) !=
                        ErrorPattern::threeBits) {
                        continue;
                    }
                    fn(mask);
                    ++count;
                }
            }
        }
        return count;
      }
      default:
        fatal("forEachErrorMaskInRange: pattern is not enumerable");
    }
}

std::uint64_t
forEachErrorMask(ErrorPattern p,
                 const std::function<void(const Bits288&)>& fn)
{
    return forEachErrorMaskInRange(p, 0, enumerationOuterSize(p), fn);
}

} // namespace gpuecc
