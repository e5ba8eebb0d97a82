/** @file Tests for the Table 1 error-pattern model. */

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "faultsim/patterns.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {
namespace {

/**
 * A bit-at-a-time sampler and set-bit-walking classifier: the
 * reference that pins the sampled stream (sampler version 2). The
 * same Table 1 rules and the same packing, written out one bit at a
 * time.
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
        // The region splits at 64-bit word boundaries into segments.
        // Each segment takes one fresh draw, and its k-th bit is bit k
        // of that draw.
        Bits288 mask;
        std::uint64_t draw = 0;
        int k = 0;
        for (int i = 0; i < region_bits; ++i) {
            const int phys = region_lo + i;
            if (i == 0 || phys % 64 == 0) {
                draw = rng.next64();
                k = 0;
            }
            if ((draw >> k++) & 1)
                mask.set(phys, 1);
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
        // One draw per attempt: beat b is bit b of the draw.
        const std::uint64_t draw = rng.next64();
        Bits288 mask;
        for (int beat = 0; beat < layout::num_beats; ++beat) {
            if ((draw >> beat) & 1)
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

TEST(SamplerDistribution, RegionBitsAreFairAndIndependent)
{
    // Holds for any correct sampler stream, so it vouches for a
    // stream change the frozen hashes below cannot. Per region
    // pattern: each region bit is set with its probability given the
    // mask's shape (a pin mask is one of the 11 4-bit masks with >= 2
    // bits, 7 of which set a given beat; a byte mask one of 247, 127);
    // bits j and j + 64 of an entry, which come from different word
    // segments, agree half the time; and the mean popcount is half
    // the region.
    constexpr int n = 200000;
    const auto expectRate = [&](std::uint64_t hits, double p,
                               const std::string& what) {
        const double sigma = std::sqrt(p * (1 - p) / n);
        EXPECT_LE(std::abs(static_cast<double>(hits) / n - p),
                  5 * sigma)
            << what << ": " << hits << " of " << n << ", want " << p;
    };
    struct Region
    {
        ErrorPattern pattern;
        int bits;
        double p;
    };
    for (const Region& r :
         {Region{ErrorPattern::onePin, layout::num_beats, 7.0 / 11},
          Region{ErrorPattern::oneByte, 8, 127.0 / 247},
          Region{ErrorPattern::oneBeat, layout::beat_bits, 0.5},
          Region{ErrorPattern::wholeEntry, layout::entry_bits, 0.5}}) {
        const std::string label = patternInfo(r.pattern).label;
        // Index of a set bit within its region.
        const auto regionBit = [&](int phys) {
            switch (r.pattern) {
              case ErrorPattern::onePin:
                return layout::beatOf(phys);
              case ErrorPattern::oneByte:
                return phys % 8;
              case ErrorPattern::oneBeat:
                return phys % layout::beat_bits;
              default:
                return phys;
            }
        };
        Rng rng(0xD157 + static_cast<std::uint64_t>(r.pattern));
        std::vector<std::uint64_t> set(r.bits, 0);
        std::vector<std::uint64_t> agree(224, 0);
        std::uint64_t popcount = 0;
        for (int i = 0; i < n; ++i) {
            const Bits288 mask = sampleErrorMask(r.pattern, rng);
            mask.forEachSetBit([&](int phys) { ++set[regionBit(phys)]; });
            popcount += static_cast<std::uint64_t>(mask.popcount());
            if (r.pattern != ErrorPattern::wholeEntry)
                continue;
            for (int j = 0; j < 224; ++j) {
                const std::uint64_t same =
                    ~(mask.word(j / 64) ^ mask.word(j / 64 + 1));
                agree[j] += (same >> (j % 64)) & 1;
            }
        }
        for (int b = 0; b < r.bits; ++b)
            expectRate(set[b], r.p, label + " bit " + std::to_string(b));
        if (r.pattern == ErrorPattern::wholeEntry) {
            for (int j = 0; j < 224; ++j) {
                expectRate(agree[j], 0.5,
                           "entry bits " + std::to_string(j) + " and " +
                               std::to_string(j + 64) + " agree");
            }
        }
        if (r.pattern == ErrorPattern::oneBeat ||
            r.pattern == ErrorPattern::wholeEntry) {
            // r.bits fair coins: mean r.bits / 2, variance r.bits / 4.
            const double mean = static_cast<double>(popcount) / n;
            EXPECT_LE(std::abs(mean - r.bits / 2.0),
                      5 * std::sqrt(r.bits / 4.0 / n))
                << label << " mean popcount " << mean;
        }
    }
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
    static_assert(kSamplerVersion == 2,
                  "a new sampler version re-freezes these hashes");
    // FNV-1a 64 over the words of 10,000 masks per pattern, then the
    // generator's next value — the stream every sampled tally is
    // drawn from, at sampler version 2. The 1 Bit, 2 Bits and 3 Bits
    // rows are version 1's too: only the region patterns changed.
    struct Frozen
    {
        ErrorPattern pattern;
        std::uint64_t hash;
        std::uint64_t next;
    };
    const Frozen frozen[] = {
        {ErrorPattern::oneBit, 0xca81121c76576157, 0x60a22c4dbddb417b},
        {ErrorPattern::onePin, 0x4e438bf894b327e1, 0x8f754791864ecef7},
        {ErrorPattern::oneByte, 0x5962449f289009f2, 0x477712cb4f027f8d},
        {ErrorPattern::twoBits, 0x5429efccdc836ef7, 0x0b5286d18b1e5c33},
        {ErrorPattern::threeBits, 0x9fd4dd8d436982d8,
         0x158f0515e7dbbac0},
        {ErrorPattern::oneBeat, 0xc933f0fec7a9846b, 0xcfe84b1f1e49e559},
        {ErrorPattern::wholeEntry, 0x2b4e2e0667314fce,
         0x0d7328a99e4f11b0},
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
