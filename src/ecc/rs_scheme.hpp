/**
 * @file
 * Symbol-based (Reed-Solomon) entry-level ECC organizations.
 *
 * InterleavedSscScheme: two (18, 16) SSC codewords per entry with the
 * paper's 4-pin x 2-beat symbol shape and a byte-granularity
 * checkerboard interleave, so a byte error lands as one symbol error
 * in each codeword and a pin error as one symbol error in each
 * codeword - preserving both byte and pin correction. Optionally
 * applies the correction sanity check.
 *
 * Rs3632Scheme: one (36, 32) codeword whose symbols are the physical
 * bytes of the entry (check symbols spread one per beat), decoded as
 * SSC-DSD+ (one-shot three-pair agreement), as DSC
 * (double-symbol-correct PGZ reference), or as SSC-TSD. SSC-TSD is
 * behaviourally identical to SSC-DSD+ at this code length - both are
 * bounded-distance t=1 decoders of a d=5 code - and the paper's
 * distinction between them is the hardware (iterative algebraic vs
 * one-shot), which the hwmodel library captures.
 *
 * Both compiled decoders gather their packed syndromes through the
 * shared per-byte table of ecc/syndrome_gather.hpp, decide from the
 * syndromes alone (rs/decoders.hpp's fix functions), return a DUE
 * before touching data, and extract the data of a clean or corrected
 * entry straight from the entry's words.
 */

#ifndef GPUECC_ECC_RS_SCHEME_HPP
#define GPUECC_ECC_RS_SCHEME_HPP

#include <array>
#include <string>

#include "ecc/scheme.hpp"
#include "ecc/syndrome_gather.hpp"
#include "rs/decoders.hpp"
#include "rs/rs_code.hpp"

namespace gpuecc {

/** The paper's interleaved (18, 16) x 2 SSC organization. */
class InterleavedSscScheme : public EntryScheme
{
  public:
    /** @param csc apply the correction sanity check when both
     *             codewords correct */
    explicit InterleavedSscScheme(bool csc);

    std::string id() const override { return csc_ ? "i-ssc-csc" : "i-ssc"; }
    std::string name() const override
    {
        return csc_ ? "I:SSC+CSC" : "I:SSC";
    }
    Bits288 encode(const EntryData& data) const override;
    EntryDecode decode(const Bits288& received) const override;
    bool correctsPinErrors() const override { return true; }

    /**
     * Physical bit of bit `t` (0..7) of code position `pos` of
     * codeword `cw`. Symbols are 4 pins x 2 beats; the codeword
     * assignment of a (column, beat-pair) slot is (column +
     * beat-pair) mod 2, forming the byte-granularity checkerboard.
     */
    static int physicalBit(int cw, int pos, int t);

    /**
     * Erasure-mode decode for a diagnosed pin: the pin crosses one
     * symbol of each codeword, which is re-filled from the
     * syndromes; one residual syndrome per codeword still detects an
     * additional error (d = 3 with one erasure leaves single-error
     * detection, not correction).
     */
    EntryDecode decodeWithPinErasure(const Bits288& received,
                                     int pin) const override;

    /** decode() of each entry, with one backend dispatch per batch. */
    void decodeBatch(const Bits288* received, EntryDecode* out,
                     std::size_t n) const override;

  private:
    std::array<std::vector<std::uint8_t>, 2>
    gatherCodewords(const Bits288& physical) const;

    EntryDecode decodeFast(const Bits288& received) const;
    EntryDecode decodeReference(const Bits288& received) const;

    RsCode code_;
    bool csc_;
    /** Byte 2c + j holds S_j of codeword c. */
    SyndromeGather gather_;
};

/** The (36, 32) single-codeword organizations. */
class Rs3632Scheme : public EntryScheme
{
  public:
    /** Which decoder drives the organization. */
    enum class Decoder
    {
        sscDsdPlus, //!< the paper's proposed one-shot SSC-DSD+
        sscTsd,     //!< reference; same error-domain behaviour
        dsc         //!< double-symbol-correct PGZ reference
    };

    explicit Rs3632Scheme(Decoder decoder);

    std::string id() const override;
    std::string name() const override;
    Bits288 encode(const EntryData& data) const override;
    EntryDecode decode(const Bits288& received) const override;
    bool correctsPinErrors() const override { return false; }

    /** Physical byte holding code position `pos` (checks are spread
     *  one per beat: positions 0..3 map to bytes 0, 9, 18, 27). */
    static int physicalByteOf(int pos);

    /**
     * Erasure-mode decode for a diagnosed pin: the pin crosses four
     * symbols (one per beat), consuming all four check symbols as
     * erasure fills. This *restores* pin tolerance for SSC-DSD+ -
     * the capability the normal decoder lacks - but leaves no
     * residual detection, so an additional error during the fill is
     * a silent-corruption risk (quantified in the tests).
     */
    EntryDecode decodeWithPinErasure(const Bits288& received,
                                     int pin) const override;

    /** decode() of each entry, with one backend dispatch per batch. */
    void decodeBatch(const Bits288* received, EntryDecode* out,
                     std::size_t n) const override;

  private:
    EntryDecode decodeFast(const Bits288& received) const;
    EntryDecode decodeReference(const Bits288& received) const;

    RsCode code_;
    Decoder decoder_;
    /** Byte j holds S_j. */
    SyndromeGather gather_;
};

} // namespace gpuecc

#endif // GPUECC_ECC_RS_SCHEME_HPP
