/**
 * @file
 * Differential harness: compiled codec vs matrix reference.
 *
 * The compiled fast path (byte parity tables + syndrome->correction
 * tables) must be observationally identical to the original
 * matrix/bit-by-bit reference it was lowered from. This harness
 * cross-checks the two backends bit-for-bit: at the Code72 level over
 * every codeword-local error, and at the entry level for every
 * registered scheme over all 1- and 2-bit flips, every aligned byte
 * pattern, seeded random sparse patterns, and the error masks of
 * every Table 1 pattern decoded on their own (the error domain the
 * campaign kernel works in) — then once more at the campaign level,
 * where a whole sampled campaign must produce identical outcome
 * tallies under either backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include <cstdlib>
#include <cstring>

#include "codes/hsiao.hpp"
#include "codes/linear_code.hpp"
#include "codes/sec2bec.hpp"
#include "common/codec_mode.hpp"
#include "common/rng.hpp"
#include "ecc/reconfigurable.hpp"
#include "ecc/registry.hpp"
#include "ecc/rs_scheme.hpp"
#include "ecc/syndrome_gather.hpp"
#include "faultsim/patterns.hpp"
#include "sim/campaign.hpp"

namespace gpuecc {
namespace {

/** Restores the codec backend a test body switches around. */
class BackendGuard
{
  public:
    BackendGuard() : saved_(codecBackend()) {}
    ~BackendGuard() { setCodecBackend(saved_); }

  private:
    CodecBackend saved_;
};

/** Decode `received` under both backends and require identical results. */
void
expectBackendsAgree(const EntryScheme& scheme, const Bits288& received)
{
    setCodecBackend(CodecBackend::compiled);
    const EntryDecode fast = scheme.decode(received);
    setCodecBackend(CodecBackend::reference);
    const EntryDecode ref = scheme.decode(received);
    setCodecBackend(CodecBackend::compiled);

    ASSERT_EQ(fast.status, ref.status);
    if (fast.status != EntryDecode::Status::due) {
        ASSERT_EQ(fast.data, ref.data);
    }
}

class DifferentialCodec : public ::testing::TestWithParam<std::string>
{
  protected:
    DifferentialCodec() : scheme_(makeScheme(GetParam()))
    {
        Rng rng(0xD1FFull);
        data_ = {rng.next64(), rng.next64(), rng.next64(), rng.next64()};
        setCodecBackend(CodecBackend::compiled);
        golden_ = scheme_->encode(data_);
    }

    Bits288 flipped(std::initializer_list<int> positions) const
    {
        Bits288 r = golden_;
        for (int p : positions)
            r.set(p, !r.get(p));
        return r;
    }

    BackendGuard guard_;
    std::shared_ptr<EntryScheme> scheme_;
    EntryData data_;
    Bits288 golden_;
};

TEST_P(DifferentialCodec, EncodeIdenticalAcrossBackends)
{
    Rng rng(0xE2C0ull);
    for (int trial = 0; trial < 64; ++trial) {
        const EntryData d = {rng.next64(), rng.next64(), rng.next64(),
                             rng.next64()};
        setCodecBackend(CodecBackend::compiled);
        const Bits288 fast = scheme_->encode(d);
        setCodecBackend(CodecBackend::reference);
        const Bits288 ref = scheme_->encode(d);
        setCodecBackend(CodecBackend::compiled);
        ASSERT_EQ(fast, ref);
    }
}

TEST_P(DifferentialCodec, CleanEntryDecodesIdentically)
{
    expectBackendsAgree(*scheme_, golden_);
}

TEST_P(DifferentialCodec, AllSingleBitFlips)
{
    for (int a = 0; a < 288; ++a)
        expectBackendsAgree(*scheme_, flipped({a}));
}

TEST_P(DifferentialCodec, AllDoubleBitFlips)
{
    for (int a = 0; a < 288; ++a) {
        for (int b = a + 1; b < 288; ++b)
            expectBackendsAgree(*scheme_, flipped({a, b}));
    }
}

TEST_P(DifferentialCodec, AllAlignedBytePatterns)
{
    // Every value of every aligned byte: the compiled codec's native
    // lookup granularity, so any table row defect surfaces here.
    for (int byte = 0; byte < 36; ++byte) {
        for (int v = 1; v < 256; ++v) {
            Bits288 r = golden_;
            for (int t = 0; t < 8; ++t) {
                if ((v >> t) & 1) {
                    const int pos = 8 * byte + t;
                    r.set(pos, !r.get(pos));
                }
            }
            expectBackendsAgree(*scheme_, r);
        }
    }
}

TEST_P(DifferentialCodec, RandomSparsePatterns)
{
    Rng rng(0xFA57ull);
    for (int trial = 0; trial < 4000; ++trial) {
        Bits288 r = golden_;
        const int weight = 3 + static_cast<int>(rng.nextBounded(4));
        for (int f = 0; f < weight; ++f) {
            const int pos = static_cast<int>(rng.nextBounded(288));
            r.set(pos, !r.get(pos));
        }
        expectBackendsAgree(*scheme_, r);
    }
}

TEST_P(DifferentialCodec, PinErasureDecodeIdentical)
{
    // Erasure decode under both backends, for every pin, with the
    // erased pin flipped across all beats plus one extra random flip.
    Rng rng(0xE7A5ull);
    for (int pin = 0; pin < 72; ++pin) {
        Bits288 r = golden_;
        for (int beat = 0; beat < 4; ++beat) {
            if (rng.nextBool(0.5)) {
                const int pos = 72 * beat + pin;
                r.set(pos, !r.get(pos));
            }
        }
        const int extra = static_cast<int>(rng.nextBounded(288));
        r.set(extra, !r.get(extra));

        setCodecBackend(CodecBackend::compiled);
        const EntryDecode fast = scheme_->decodeWithPinErasure(r, pin);
        setCodecBackend(CodecBackend::reference);
        const EntryDecode ref = scheme_->decodeWithPinErasure(r, pin);
        setCodecBackend(CodecBackend::compiled);

        ASSERT_EQ(fast.status, ref.status);
        if (fast.status != EntryDecode::Status::due) {
            ASSERT_EQ(fast.data, ref.data);
        }
    }
}

// ---------------------------------------------------------------------
// Error-domain tier. The campaign kernel decodes each error mask
// itself, against the all-zero codeword, so the masks of every Table
// 1 pattern must decode identically under both backends with no
// golden entry around them. The compiled gather walks the nonzero
// bytes of a sparse 64-bit word and sweeps a dense one; words at that
// switch get their own sweep.
// ---------------------------------------------------------------------

TEST_P(DifferentialCodec, ErrorMasksOfEveryPatternDecodeIdentically)
{
    expectBackendsAgree(*scheme_, Bits288{});
    Rng rng(0xE2202ull);
    for (ErrorPattern p : allErrorPatterns()) {
        for (int i = 0; i < 1000; ++i) {
            expectBackendsAgree(*scheme_, sampleErrorMask(p, rng));
            if (HasFatalFailure())
                FAIL() << patternInfo(p).label << " mask " << i;
        }
    }
}

TEST_P(DifferentialCodec, WordsAtTheSparseDenseSwitchDecodeIdentically)
{
    // Each word of the mask holds 0, kSparseWordBytes (the last count
    // still walked), kSparseWordBytes + 1 (the first swept) or all of
    // its nonzero bytes; the last word has 4 bytes.
    Rng rng(0x5BA25Eull);
    for (int trial = 0; trial < 2000; ++trial) {
        Bits288 mask;
        for (int w = 0; w < Bits288::numWords; ++w) {
            const int width = w + 1 < Bits288::numWords ? 8 : 4;
            const int counts[] = {0, kSparseWordBytes,
                                  kSparseWordBytes + 1, width};
            const int count =
                std::min(width, counts[rng.nextBounded(4)]);
            std::uint64_t word = 0;
            for (int placed = 0; placed < count;) {
                const int b = static_cast<int>(rng.nextBounded(width));
                if ((word >> (8 * b)) & 0xff)
                    continue;
                word |= (1 + rng.nextBounded(255)) << (8 * b);
                ++placed;
            }
            mask.setWord(w, word);
        }
        expectBackendsAgree(*scheme_, mask);
        expectBackendsAgree(*scheme_, golden_ ^ mask);
        if (HasFatalFailure())
            FAIL() << "trial " << trial;
    }
}

TEST_P(DifferentialCodec, DecodeIsLinearInTheError)
{
    // The property the error-domain kernel rests on: zero data
    // encodes to the all-zero entry, and decode(golden ^ m) has the
    // status of decode(m) and its data XOR golden's.
    setCodecBackend(CodecBackend::compiled);
    ASSERT_TRUE(scheme_->encode(EntryData{}).none());
    Rng rng(0x11EA2ull);
    for (ErrorPattern p : allErrorPatterns()) {
        for (int i = 0; i < 1000; ++i) {
            const Bits288 mask = sampleErrorMask(p, rng);
            const EntryDecode injected = scheme_->decode(golden_ ^ mask);
            const EntryDecode error = scheme_->decode(mask);
            ASSERT_EQ(injected.status, error.status)
                << patternInfo(p).label << " mask " << i;
            if (error.status == EntryDecode::Status::due)
                continue;
            EntryData shifted = error.data;
            for (int w = 0; w < 4; ++w)
                shifted[w] ^= data_[w];
            ASSERT_EQ(injected.data, shifted)
                << patternInfo(p).label << " mask " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, DifferentialCodec,
    ::testing::Values("ni-secded", "i-secded", "duet", "ni-sec2bec",
                      "i-sec2bec", "trio", "i-ssc", "i-ssc-csc",
                      "ssc-dsd+", "dsc", "ssc-tsd"),
    [](const auto& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// RS fuzz tier: the compiled Reed-Solomon fast path vs the scalar
// oracle, at symbol granularity.
//
// The binary-level sweeps above treat every scheme uniformly; this
// tier speaks the RS schemes' native error domain. Errors are
// injected per *symbol* (a physical byte for the (36,32) schemes, a
// 4-pin x 2-beat nibble-column pair for the interleaved (18,16)
// schemes) and every decode is triple-checked: fast single-entry,
// fast batched (through decodeBatch), and the reference oracle. Agreement covers the outcome
// class, the corrected data, and — critically — *miscorrection
// identity*: when a 2/3-symbol pattern aliases into some decoder's
// correctable footprint, both paths must fabricate the exact same
// wrong answer, or campaign SDC tallies would diverge between
// backends.
//
// The 2-symbol value sweep is exhaustive in positions and uses a
// fixed 8-value magnitude subset per position pair (630 x 64), plus
// a full 255 x 255 magnitude sweep at three representative pairs.
// Set GPUECC_RS_EXHAUSTIVE=1 to run the full 630 x 255 x 255 sweep
// (~41M decodes per scheme; minutes-to-hours, not tier-1).
// ---------------------------------------------------------------------

/** Magnitude subset for the exhaustive-position 2-symbol sweep. */
const std::uint8_t kPairMagnitudes[] = {0x01, 0x02, 0x10, 0x53,
                                        0x80, 0xAA, 0xC3, 0xFF};

class RsDifferential : public ::testing::TestWithParam<std::string>
{
  protected:
    RsDifferential() : scheme_(makeScheme(GetParam()))
    {
        interleaved_ = GetParam().rfind("i-ssc", 0) == 0;
        Rng rng(0x55C0DEull);
        data_ = {rng.next64(), rng.next64(), rng.next64(), rng.next64()};
        setCodecBackend(CodecBackend::compiled);
        golden_ = scheme_->encode(data_);
    }

    /** Both organizations carry 36 code symbols per entry. */
    static constexpr int kNumSymbols = 36;

    /** XOR `mag` into code symbol `sym` through the physical layout. */
    void
    xorSymbol(Bits288& r, int sym, std::uint8_t mag) const
    {
        if (interleaved_) {
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

    /** Fast single, fast batched, and reference must fully agree. */
    void
    check(const Bits288& r) const
    {
        setCodecBackend(CodecBackend::compiled);
        const EntryDecode fast = scheme_->decode(r);
        EntryDecode batched{};
        scheme_->decodeBatch(&r, &batched, 1);
        setCodecBackend(CodecBackend::reference);
        const EntryDecode ref = scheme_->decode(r);
        setCodecBackend(CodecBackend::compiled);

        ASSERT_EQ(fast.status, ref.status);
        ASSERT_EQ(batched.status, ref.status);
        if (ref.status != EntryDecode::Status::due) {
            ASSERT_EQ(fast.data, ref.data);
            ASSERT_EQ(batched.data, ref.data);
        }
    }

    BackendGuard guard_;
    std::shared_ptr<EntryScheme> scheme_;
    EntryData data_;
    Bits288 golden_;
    bool interleaved_;
};

TEST_P(RsDifferential, AllSingleSymbolErrorsExhaustive)
{
    for (int sym = 0; sym < kNumSymbols; ++sym) {
        for (int mag = 1; mag < 256; ++mag) {
            Bits288 r = golden_;
            xorSymbol(r, sym, static_cast<std::uint8_t>(mag));
            check(r);
            if (HasFatalFailure())
                FAIL() << "sym=" << sym << " mag=" << mag;
        }
    }
}

TEST_P(RsDifferential, AllDoubleSymbolErrorPositions)
{
    const bool exhaustive = [] {
        const char* env = std::getenv("GPUECC_RS_EXHAUSTIVE");
        return env != nullptr && *env != '\0'
               && std::strcmp(env, "0") != 0;
    }();
    for (int a = 0; a < kNumSymbols; ++a) {
        for (int b = a + 1; b < kNumSymbols; ++b) {
            if (exhaustive) {
                for (int m1 = 1; m1 < 256; ++m1) {
                    for (int m2 = 1; m2 < 256; ++m2) {
                        Bits288 r = golden_;
                        xorSymbol(r, a, static_cast<std::uint8_t>(m1));
                        xorSymbol(r, b, static_cast<std::uint8_t>(m2));
                        check(r);
                        if (HasFatalFailure())
                            FAIL() << "a=" << a << " b=" << b
                                   << " m1=" << m1 << " m2=" << m2;
                    }
                }
                continue;
            }
            for (std::uint8_t m1 : kPairMagnitudes) {
                for (std::uint8_t m2 : kPairMagnitudes) {
                    Bits288 r = golden_;
                    xorSymbol(r, a, m1);
                    xorSymbol(r, b, m2);
                    check(r);
                    if (HasFatalFailure())
                        FAIL() << "a=" << a << " b=" << b
                               << " m1=" << int(m1) << " m2=" << int(m2);
                }
            }
        }
    }
}

TEST_P(RsDifferential, FullMagnitudeSweepAtRepresentativePairs)
{
    // Check+check, check+data, and data+data symbol pairs, every
    // (m1, m2) in [1, 255]^2 — the full alias surface at fixed
    // geometry.
    const int pairs[3][2] = {{0, 1}, {1, 7}, {10, 29}};
    for (const auto& pair : pairs) {
        for (int m1 = 1; m1 < 256; ++m1) {
            for (int m2 = 1; m2 < 256; ++m2) {
                Bits288 r = golden_;
                xorSymbol(r, pair[0], static_cast<std::uint8_t>(m1));
                xorSymbol(r, pair[1], static_cast<std::uint8_t>(m2));
                check(r);
                if (HasFatalFailure())
                    FAIL() << "pair=(" << pair[0] << "," << pair[1]
                           << ") m1=" << m1 << " m2=" << m2;
            }
        }
    }
}

TEST_P(RsDifferential, RandomSparseSymbolFloods)
{
    // >= 3-symbol patterns: beyond every decoder's correction radius,
    // where only detection vs miscorrection identity is at stake.
    Rng rng(0xF100Dull);
    for (int trial = 0; trial < 4000; ++trial) {
        Bits288 r = golden_;
        const int weight = 3 + static_cast<int>(rng.nextBounded(4));
        for (int f = 0; f < weight; ++f) {
            const int sym = static_cast<int>(rng.nextBounded(kNumSymbols));
            const auto mag = static_cast<std::uint8_t>(
                1 + rng.nextBounded(255));
            xorSymbol(r, sym, mag);
        }
        check(r);
        if (HasFatalFailure())
            FAIL() << "trial=" << trial;
    }
}

TEST_P(RsDifferential, RandomDataPatternsDecodeIdentically)
{
    // The fast encode + clean decode loop over random payloads: the
    // word-level data extraction must reproduce every byte of every
    // payload.
    Rng rng(0xDA7A5ull);
    for (int trial = 0; trial < 256; ++trial) {
        const EntryData d = {rng.next64(), rng.next64(), rng.next64(),
                             rng.next64()};
        setCodecBackend(CodecBackend::compiled);
        const Bits288 w = scheme_->encode(d);
        check(w);
        if (HasFatalFailure())
            FAIL() << "trial=" << trial;
        setCodecBackend(CodecBackend::compiled);
        const EntryDecode round = scheme_->decode(w);
        ASSERT_EQ(round.status, EntryDecode::Status::clean);
        ASSERT_EQ(round.data, d);
    }
}

TEST_P(RsDifferential, PinErasureDecodeFuzz)
{
    // Heavier erasure fuzz than the generic tier: every pin, random
    // per-beat damage on the pin plus up to two extra symbol errors.
    Rng rng(0xE7A5E2ull);
    for (int pin = 0; pin < 72; ++pin) {
        for (int trial = 0; trial < 8; ++trial) {
            Bits288 r = golden_;
            for (int beat = 0; beat < 4; ++beat) {
                if (rng.nextBool(0.6)) {
                    const int pos = 72 * beat + pin;
                    r.set(pos, !r.get(pos));
                }
            }
            const int extras = static_cast<int>(rng.nextBounded(3));
            for (int f = 0; f < extras; ++f) {
                xorSymbol(r,
                          static_cast<int>(rng.nextBounded(kNumSymbols)),
                          static_cast<std::uint8_t>(
                              1 + rng.nextBounded(255)));
            }

            setCodecBackend(CodecBackend::compiled);
            const EntryDecode fast = scheme_->decodeWithPinErasure(r, pin);
            setCodecBackend(CodecBackend::reference);
            const EntryDecode ref = scheme_->decodeWithPinErasure(r, pin);
            setCodecBackend(CodecBackend::compiled);

            ASSERT_EQ(fast.status, ref.status)
                << "pin=" << pin << " trial=" << trial;
            if (fast.status != EntryDecode::Status::due) {
                ASSERT_EQ(fast.data, ref.data) << "pin=" << pin;
            }
        }
    }
}

TEST_P(RsDifferential, BatchedDecodeMatchesReferenceElementwise)
{
    // One big heterogeneous batch — clean entries, single-symbol
    // errors, and random floods interleaved — pushed through
    // decodeBatch in one call, longer than one 256-entry shard
    // batch.
    Rng rng(0xBA7C4ull);
    std::vector<Bits288> batch;
    for (int sym = 0; sym < kNumSymbols; ++sym) {
        for (std::uint8_t mag : kPairMagnitudes) {
            Bits288 r = golden_;
            xorSymbol(r, sym, mag);
            batch.push_back(r);
            batch.push_back(golden_); // interleave clean entries
        }
    }
    for (int trial = 0; trial < 128; ++trial) {
        Bits288 r = golden_;
        const int weight = 2 + static_cast<int>(rng.nextBounded(4));
        for (int f = 0; f < weight; ++f) {
            xorSymbol(r, static_cast<int>(rng.nextBounded(kNumSymbols)),
                      static_cast<std::uint8_t>(1 + rng.nextBounded(255)));
        }
        batch.push_back(r);
    }

    std::vector<EntryDecode> out(batch.size());
    setCodecBackend(CodecBackend::compiled);
    scheme_->decodeBatch(batch.data(), out.data(), batch.size());
    setCodecBackend(CodecBackend::reference);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const EntryDecode ref = scheme_->decode(batch[i]);
        ASSERT_EQ(out[i].status, ref.status) << "entry " << i;
        if (ref.status != EntryDecode::Status::due) {
            ASSERT_EQ(out[i].data, ref.data) << "entry " << i;
        }
    }
    setCodecBackend(CodecBackend::compiled);
}

INSTANTIATE_TEST_SUITE_P(
    RsSchemes, RsDifferential,
    ::testing::Values("i-ssc", "i-ssc-csc", "ssc-dsd+", "dsc",
                      "ssc-tsd"),
    [](const auto& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

TEST(DifferentialReconfigurable, BothPoliciesAgreeAcrossBackends)
{
    BackendGuard guard;
    ReconfigurableDuetTrio scheme;
    Rng rng(0x12EC0ull);
    const EntryData d = {rng.next64(), rng.next64(), rng.next64(),
                         rng.next64()};
    setCodecBackend(CodecBackend::compiled);
    const Bits288 golden = scheme.encode(d);

    for (ReconfigurableDuetTrio::Policy policy :
         {ReconfigurableDuetTrio::Policy::duet,
          ReconfigurableDuetTrio::Policy::trio}) {
        scheme.setPolicy(policy);
        for (int a = 0; a < 288; ++a) {
            Bits288 r = golden;
            r.set(a, !r.get(a));
            const int b = static_cast<int>(rng.nextBounded(288));
            r.set(b, !r.get(b));
            expectBackendsAgree(scheme, r);
        }
    }
}

/** Code72-level differential over both paper codes and both modes. */
class DifferentialCode72 : public ::testing::Test
{
  protected:
    std::vector<Code72> codes() const
    {
        std::vector<Code72> out;
        out.emplace_back(hsiao7264Matrix());
        out.emplace_back(sec2becPaperMatrix());
        out.emplace_back(sec2becInterleavedMatrix(),
                         Code72::stride4Pairs());
        return out;
    }
};

TEST_F(DifferentialCode72, EncodeAndSyndromeIdentical)
{
    Rng rng(0xC0DEull);
    for (const Code72& code : codes()) {
        for (int trial = 0; trial < 256; ++trial) {
            const std::uint64_t data = rng.next64();
            ASSERT_EQ(code.encodeCompiled(data),
                      code.encodeReference(data));
        }
        Bits72 w = code.encode(rng.next64());
        for (int a = 0; a < 72; ++a) {
            for (int b = 0; b < 72; ++b) {
                Bits72 r = w;
                r.set(a, !r.get(a));
                r.set(b, r.get(b) ^ 1);
                ASSERT_EQ(code.syndromeCompiled(r),
                          code.syndromeReference(r));
            }
        }
    }
}

TEST_F(DifferentialCode72, DecodeIdenticalForAllDoubleFlips)
{
    for (const Code72& code : codes()) {
        const Bits72 w = code.encode(0x0123456789ABCDEFull);
        for (Code72::Mode mode :
             {Code72::Mode::secDed, Code72::Mode::sec2bEc}) {
            for (int a = 0; a < 72; ++a) {
                for (int b = a; b < 72; ++b) {
                    Bits72 r = w;
                    r.set(a, !r.get(a));
                    if (b != a)
                        r.set(b, !r.get(b));
                    const CodewordDecode fast =
                        code.decodeCompiled(r, mode);
                    const CodewordDecode ref =
                        code.decodeReference(r, mode);
                    ASSERT_EQ(fast.status, ref.status);
                    ASSERT_EQ(fast.correction, ref.correction);
                }
            }
        }
    }
}

TEST_F(DifferentialCode72, ErasureDecodeIdentical)
{
    for (const Code72& code : codes()) {
        const Bits72 w = code.encode(0xFEDCBA9876543210ull);
        for (int erased = 0; erased < 72; ++erased) {
            for (int a = 0; a < 72; ++a) {
                for (int b = a; b < 72; ++b) {
                    Bits72 r = w;
                    r.set(a, !r.get(a));
                    if (b != a)
                        r.set(b, !r.get(b));
                    const CodewordDecode fast =
                        code.decodeWithErasureCompiled(r, erased);
                    const CodewordDecode ref =
                        code.decodeWithErasureReference(r, erased);
                    ASSERT_EQ(fast.status, ref.status);
                    ASSERT_EQ(fast.correction, ref.correction);
                }
            }
        }
    }
}

TEST(DifferentialCampaign, TalliesIdenticalAcrossBackends)
{
    BackendGuard guard;
    sim::CampaignSpec spec;
    spec.scheme_ids = {"ni-secded", "duet", "trio", "i-ssc", "ssc-dsd+"};
    spec.samples = 20000;
    spec.seed = 0xD1FFC0DEull;
    spec.threads = 2;
    spec.chunk = 4096;

    setCodecBackend(CodecBackend::compiled);
    const sim::CampaignResult fast = sim::CampaignRunner(spec).run();
    setCodecBackend(CodecBackend::reference);
    const sim::CampaignResult ref = sim::CampaignRunner(spec).run();
    setCodecBackend(CodecBackend::compiled);

    EXPECT_EQ(fast.codec_backend, "compiled");
    EXPECT_EQ(ref.codec_backend, "reference");
    ASSERT_EQ(fast.cells.size(), ref.cells.size());
    for (std::size_t i = 0; i < fast.cells.size(); ++i) {
        const sim::CampaignCell& a = fast.cells[i];
        const sim::CampaignCell& b = ref.cells[i];
        ASSERT_EQ(a.scheme_id, b.scheme_id);
        ASSERT_EQ(a.pattern, b.pattern);
        EXPECT_EQ(a.counts.trials, b.counts.trials);
        EXPECT_EQ(a.counts.dce, b.counts.dce);
        EXPECT_EQ(a.counts.due, b.counts.due);
        EXPECT_EQ(a.counts.sdc, b.counts.sdc);
    }
}

} // namespace
} // namespace gpuecc
