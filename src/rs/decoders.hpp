/**
 * @file
 * Reed-Solomon decoders used by the paper's symbol-based schemes.
 *
 * - decodeSscOneShot: the (18, 16) single-symbol-correct decoder with
 *   one-shot error location via discrete-log difference (Katayama &
 *   Morioka style, Figure 7c of the paper).
 * - decodeSscDsdPlus: the (36, 32) SSC-DSD+ decoder; three check-byte
 *   pairs each produce a single-error location estimate and correction
 *   proceeds only when all three agree. With four consecutive roots
 *   this agreement test is exactly bounded-distance t=1 decoding of a
 *   d=5 code, which is why the scheme detects all double (and at this
 *   length, triple) symbol errors; the paper treats full SSC-TSD as a
 *   distinct, slower decoder only because of its iterative hardware.
 * - decodeDsc: the (36, 32) double-symbol-correct decoder
 *   (Peterson-Gorenstein-Zierler with a Chien search), implemented as
 *   the reference the paper rejects on latency grounds.
 *
 * The fix* functions make the same decisions from already-computed
 * syndromes, without allocating: the compiled codecs gather the
 * syndromes and call them, and the differential tests diff them
 * against the decoders above decision-for-decision.
 */

#ifndef GPUECC_RS_DECODERS_HPP
#define GPUECC_RS_DECODERS_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "rs/rs_code.hpp"

namespace gpuecc {

/** Outcome of decoding one Reed-Solomon codeword. */
struct RsDecode
{
    enum class Status
    {
        clean,      //!< all syndromes zero
        corrected,  //!< correction applied
        due         //!< detected-yet-uncorrectable
    };

    Status status;
    /** The corrected word (equal to the input unless corrected). */
    std::vector<std::uint8_t> word;
    /** Symbol positions the decoder modified. */
    std::vector<int> error_positions;
};

/** One-shot single-symbol correction for an r=2 code. */
RsDecode decodeSscOneShot(const RsCode& code,
                          const std::vector<std::uint8_t>& received);

/**
 * SSC-DSD+ decoding for an r=4 code: correct a single symbol only if
 * the location estimates from check-byte pairs (S0,S1), (S1,S2) and
 * (S2,S3) all agree on a valid position; otherwise flag a DUE.
 */
RsDecode decodeSscDsdPlus(const RsCode& code,
                          const std::vector<std::uint8_t>& received);

/**
 * Double-symbol correction for an r=4 code via PGZ + Chien search.
 * Patterns beyond two symbol errors raise a DUE when inconsistent.
 */
RsDecode decodeDsc(const RsCode& code,
                   const std::vector<std::uint8_t>& received);

/**
 * Erasure decoding: fill up to r symbols at *known* positions (e.g.
 * the symbols crossing a diagnosed permanent pin failure) by solving
 * the syndrome equations, assuming no additional errors.
 *
 * With e erasures the code retains d - 1 - e residual detection; the
 * fill is verified against every syndrome, so any leftover
 * inconsistency raises a DUE rather than corrupting.
 *
 * @param erasures distinct symbol positions, at most r of them
 */
RsDecode decodeWithErasures(const RsCode& code,
                            const std::vector<std::uint8_t>& received,
                            const std::vector<int>& erasures);

/** A correction decision derived from syndromes alone. */
struct RsFix
{
    RsDecode::Status status;
    int num_errors;                    //!< positions modified (0..2)
    std::array<int, 2> pos;            //!< code positions to patch
    std::array<std::uint8_t, 2> mag;   //!< XOR magnitudes
};

/** decodeSscOneShot's decision from the r=2 syndromes of an n-symbol
 *  word (returns clean when both are zero). */
RsFix fixSscOneShot(int n, const std::uint8_t* s);

/** decodeSscDsdPlus's decision from the r=4 syndromes. */
RsFix fixSscDsdPlus(int n, const std::uint8_t* s);

/** decodeDsc's decision from the r=4 syndromes. The oracle's final
 *  isCodeword() guard is applied algebraically: the two-error fix is
 *  accepted only if it reproduces S_2 and S_3 (S_0 and S_1 hold by
 *  construction of the magnitudes). */
RsFix fixDsc(int n, const std::uint8_t* s);

} // namespace gpuecc

#endif // GPUECC_RS_DECODERS_HPP
