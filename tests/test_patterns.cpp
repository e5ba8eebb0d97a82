/** @file Tests for the Table 1 error-pattern model. */

#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "faultsim/patterns.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {
namespace {

/**
 * The bit-at-a-time sampler and set-bit-walking classifier the
 * word-wide ones replaced: the reference that pins the sampled
 * stream. The same Table 1 rules, written out one bit at a time.
 */
namespace reference {

ErrorPattern
classify(const Bits288& mask)
{
    const int bits = mask.popcount();
    if (bits == 1)
        return ErrorPattern::oneBit;
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
    if (same_pin)
        return ErrorPattern::onePin;
    if (same_byte)
        return ErrorPattern::oneByte;
    if (bits == 2)
        return ErrorPattern::twoBits;
    if (bits == 3)
        return ErrorPattern::threeBits;
    return same_beat ? ErrorPattern::oneBeat : ErrorPattern::wholeEntry;
}

Bits288
sampleRegion(ErrorPattern target, int region_lo, int region_bits,
             Rng& rng)
{
    for (;;) {
        Bits288 mask;
        for (int i = 0; i < region_bits; ++i) {
            if (rng.nextBool(0.5))
                mask.set(region_lo + i, 1);
        }
        if (!mask.none() && classify(mask) == target)
            return mask;
    }
}

Bits288
samplePin(Rng& rng)
{
    const int pin = static_cast<int>(rng.nextBounded(layout::num_pins));
    for (;;) {
        Bits288 mask;
        for (int beat = 0; beat < layout::num_beats; ++beat) {
            if (rng.nextBool(0.5))
                mask.set(layout::physicalIndex(beat, pin), 1);
        }
        if (mask.popcount() >= 2)
            return mask;
    }
}

/** sampleErrorMask for the region-corruption patterns. */
Bits288
sample(ErrorPattern p, Rng& rng)
{
    switch (p) {
      case ErrorPattern::onePin:
        return samplePin(rng);
      case ErrorPattern::oneByte: {
        const int byte =
            static_cast<int>(rng.nextBounded(layout::num_bytes));
        return sampleRegion(p, 8 * byte, 8, rng);
      }
      case ErrorPattern::oneBeat: {
        const int beat =
            static_cast<int>(rng.nextBounded(layout::num_beats));
        return sampleRegion(p, layout::beat_bits * beat,
                            layout::beat_bits, rng);
      }
      case ErrorPattern::wholeEntry:
        return sampleRegion(p, 0, layout::entry_bits, rng);
      default:
        ADD_FAILURE() << "no reference sampler for "
                      << patternInfo(p).label;
        return {};
    }
}

} // namespace reference

TEST(PatternTable, ProbabilitiesMatchTable1)
{
    const auto& table = patternTable();
    double total = 0.0;
    for (const PatternInfo& info : table)
        total += info.probability;
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(patternInfo(ErrorPattern::oneBit).probability,
                     0.7398);
    EXPECT_DOUBLE_EQ(patternInfo(ErrorPattern::oneByte).probability,
                     0.2256);
    EXPECT_DOUBLE_EQ(patternInfo(ErrorPattern::wholeEntry).probability,
                     0.0223);
    EXPECT_EQ(patternInfo(ErrorPattern::onePin).bits_range, "2-4");
}

TEST(Classifier, SingleBit)
{
    Bits288 m;
    m.set(17, 1);
    EXPECT_EQ(classifyErrorMask(m), ErrorPattern::oneBit);
}

TEST(Classifier, PinBeatsByteInPriority)
{
    // Two bits on one pin across beats: same pin, different bytes.
    Bits288 m;
    m.set(layout::physicalIndex(0, 5), 1);
    m.set(layout::physicalIndex(2, 5), 1);
    EXPECT_EQ(classifyErrorMask(m), ErrorPattern::onePin);
}

TEST(Classifier, ByteBeatsTwoBits)
{
    Bits288 m;
    m.set(16, 1);
    m.set(23, 1); // both in byte 2
    EXPECT_EQ(classifyErrorMask(m), ErrorPattern::oneByte);
}

TEST(Classifier, TwoAndThreeBits)
{
    Bits288 two;
    two.set(0, 1);
    two.set(100, 1);
    EXPECT_EQ(classifyErrorMask(two), ErrorPattern::twoBits);

    Bits288 three = two;
    three.set(200, 1);
    EXPECT_EQ(classifyErrorMask(three), ErrorPattern::threeBits);
}

TEST(Classifier, BeatAndEntry)
{
    Bits288 beat;
    beat.set(72 + 1, 1);
    beat.set(72 + 20, 1);
    beat.set(72 + 40, 1);
    beat.set(72 + 60, 1);
    EXPECT_EQ(classifyErrorMask(beat), ErrorPattern::oneBeat);

    Bits288 entry = beat;
    entry.set(200, 1); // beat 2
    EXPECT_EQ(classifyErrorMask(entry), ErrorPattern::wholeEntry);
}

TEST(Classifier, MatchesSetBitWalkAroundTheEightBitBoundary)
{
    // Masks of more than 8 bits are decided by beat occupancy alone;
    // sparse masks on either side of that boundary must classify as
    // the set-bit walk does.
    Rng rng(0xC1A55);
    const auto draw = [&](int n) {
        return static_cast<int>(rng.nextBounded(n));
    };
    // k distinct random bits, each at phys = lo + pick().
    const auto scatter = [&](int k, const auto& pick) {
        Bits288 mask;
        while (mask.popcount() < k)
            mask.set(pick(), 1);
        return mask;
    };
    const auto expectSame = [](const Bits288& mask) {
        ASSERT_EQ(classifyErrorMask(mask), reference::classify(mask))
            << mask.toString();
    };
    for (int trial = 0; trial < 20000; ++trial) {
        const int byte = draw(layout::num_bytes);
        const int beat = draw(layout::num_beats);
        const int other = (beat + 1 + draw(layout::num_beats - 1)) %
                          layout::num_beats;
        const int pin = draw(layout::num_pins);
        const auto inBeat = [&](int b) {
            return [&, b] {
                return layout::physicalIndex(b, draw(layout::beat_bits));
            };
        };

        // 8 bits in one byte: the whole byte.
        expectSame(scatter(8, [&] { return 8 * byte + draw(8); }));
        // 8 and 9 bits in one beat.
        expectSame(scatter(8, inBeat(beat)));
        expectSame(scatter(9, inBeat(beat)));
        // 9 bits across two beats: at least one in each.
        Bits288 two = scatter(8, inBeat(beat));
        two.set(inBeat(other)(), 1);
        expectSame(two);
        // 9 bits: a full byte plus one more bit of its beat.
        Bits288 byte_plus = scatter(8, [&] { return 8 * byte + draw(8); });
        const int byte_beat = layout::beatOf(8 * byte);
        while (byte_plus.popcount() < 9)
            byte_plus.set(inBeat(byte_beat)(), 1);
        expectSame(byte_plus);
        // 2-4-bit pins.
        expectSame(scatter(2 + draw(3), [&] {
            return layout::physicalIndex(draw(layout::num_beats), pin);
        }));
        // 2-12 bits anywhere in one or two beats.
        const int k = 2 + draw(11);
        expectSame(scatter(k, inBeat(beat)));
        expectSame(scatter(k, [&] {
            return layout::physicalIndex(draw(2) ? beat : other,
                                         draw(layout::beat_bits));
        }));
    }
}

TEST(Enumeration, CountsMatchCombinatorics)
{
    auto count = [](ErrorPattern p) {
        return forEachErrorMask(p, [](const Bits288&) {});
    };
    EXPECT_EQ(count(ErrorPattern::oneBit), 288u);
    // 72 pins x (2^4 - 1 - 4) multi-bit masks.
    EXPECT_EQ(count(ErrorPattern::onePin), 72u * 11u);
    // 36 bytes x (2^8 - 1 - 8) multi-bit masks.
    EXPECT_EQ(count(ErrorPattern::oneByte), 36u * 247u);
    // C(288,2) minus same-byte pairs (36*C(8,2)) minus same-pin
    // pairs (72*C(4,2)).
    EXPECT_EQ(count(ErrorPattern::twoBits),
              288u * 287u / 2 - 36u * 28u - 72u * 6u);
}

TEST(Enumeration, EnumeratedMasksClassifyCorrectly)
{
    for (ErrorPattern p :
         {ErrorPattern::oneBit, ErrorPattern::onePin,
          ErrorPattern::oneByte, ErrorPattern::twoBits}) {
        forEachErrorMask(p, [p](const Bits288& mask) {
            ASSERT_EQ(classifyErrorMask(mask), p);
        });
    }
}

TEST(Enumeration, EnumerableQuery)
{
    EXPECT_TRUE(patternIsEnumerable(ErrorPattern::oneBit));
    EXPECT_TRUE(patternIsEnumerable(ErrorPattern::threeBits));
    EXPECT_FALSE(patternIsEnumerable(ErrorPattern::oneBeat));
    EXPECT_FALSE(patternIsEnumerable(ErrorPattern::wholeEntry));
}

class SamplerProperty : public ::testing::TestWithParam<ErrorPattern>
{
};

TEST_P(SamplerProperty, SamplesClassifyAsRequested)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 99);
    for (int trial = 0; trial < 500; ++trial) {
        const Bits288 mask = sampleErrorMask(GetParam(), rng);
        ASSERT_FALSE(mask.none());
        ASSERT_EQ(classifyErrorMask(mask), GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, SamplerProperty,
    ::testing::Values(ErrorPattern::oneBit, ErrorPattern::onePin,
                      ErrorPattern::oneByte, ErrorPattern::twoBits,
                      ErrorPattern::threeBits, ErrorPattern::oneBeat,
                      ErrorPattern::wholeEntry));

TEST(Sampler, ByteSeveritiesSpanRange)
{
    // Conditioned random byte corruption produces 2..8 bits.
    Rng rng(1);
    std::set<int> seen;
    for (int trial = 0; trial < 2000; ++trial)
        seen.insert(sampleErrorMask(ErrorPattern::oneByte, rng)
                        .popcount());
    EXPECT_EQ(*seen.begin(), 2);
    EXPECT_EQ(*seen.rbegin(), 8);
}

TEST(SamplerStream, MatchesBitAtATimeReference)
{
    // Bit polarity, draw order and rejection all show here: a sampler
    // that flips the polarity draws an equally uniform distribution
    // and passes every statistical check.
    for (ErrorPattern p :
         {ErrorPattern::onePin, ErrorPattern::oneByte,
          ErrorPattern::oneBeat, ErrorPattern::wholeEntry}) {
        Rng rng(0x5EED + static_cast<std::uint64_t>(p));
        Rng ref = rng;
        for (int i = 0; i < 200000; ++i) {
            const Bits288 mask = sampleErrorMask(p, rng);
            ASSERT_EQ(mask, reference::sample(p, ref))
                << patternInfo(p).label << " draw " << i;
        }
        // Same consumption: both generators end in the same state.
        EXPECT_EQ(rng.next64(), ref.next64()) << patternInfo(p).label;
    }
}

TEST(SamplerStream, FrozenHashes)
{
    // FNV-1a 64 over the words of 10,000 masks per pattern, then the
    // generator's next value — the stream every sampled tally is
    // drawn from.
    struct Frozen
    {
        ErrorPattern pattern;
        std::uint64_t hash;
        std::uint64_t next;
    };
    const Frozen frozen[] = {
        {ErrorPattern::oneBit, 0xca81121c76576157, 0x60a22c4dbddb417b},
        {ErrorPattern::onePin, 0x4f661e22658c7872, 0x10280a84f9f07293},
        {ErrorPattern::oneByte, 0xa1b92f2798ce4c5b, 0x8fac29a3a5631e36},
        {ErrorPattern::twoBits, 0x5429efccdc836ef7, 0x0b5286d18b1e5c33},
        {ErrorPattern::threeBits, 0x9fd4dd8d436982d8,
         0x158f0515e7dbbac0},
        {ErrorPattern::oneBeat, 0x4daeac8d2946f984, 0x5c95a6f69bcbdc68},
        {ErrorPattern::wholeEntry, 0x041056820944b019,
         0xbb1fc70e650b8e2e},
    };
    for (const Frozen& f : frozen) {
        Rng rng(0x5EED);
        std::uint64_t hash = 0xcbf29ce484222325;
        for (int i = 0; i < 10000; ++i) {
            const Bits288 mask = sampleErrorMask(f.pattern, rng);
            for (int w = 0; w < Bits288::numWords; ++w) {
                hash ^= mask.word(w);
                hash *= 0x100000001b3;
            }
        }
        EXPECT_EQ(hash, f.hash) << patternInfo(f.pattern).label;
        EXPECT_EQ(rng.next64(), f.next) << patternInfo(f.pattern).label;
    }
}

} // namespace
} // namespace gpuecc
