/**
 * @file
 * The paper's 7-class soft error pattern model (Table 1).
 *
 * Each beam-observed error is classified into one of seven physical
 * shapes, sorted by increasing ECC correction difficulty; when a mask
 * fits several shapes the easiest wins (e.g. a 2-bit error is two
 * erroneous bits NOT confined to one byte or one pin). The same
 * classifier serves the Monte Carlo evaluator and the beam-campaign
 * post-processing.
 */

#ifndef GPUECC_FAULTSIM_PATTERNS_HPP
#define GPUECC_FAULTSIM_PATTERNS_HPP

#include <array>
#include <functional>
#include <optional>
#include <string>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace gpuecc {

/** The seven error shapes of Table 1, in increasing difficulty. */
enum class ErrorPattern
{
    oneBit,
    onePin,
    oneByte,
    twoBits,
    threeBits,
    oneBeat,
    wholeEntry
};

/** Number of patterns. */
constexpr int numErrorPatterns = 7;

/** All patterns in Table 1 order. */
const std::array<ErrorPattern, numErrorPatterns>& allErrorPatterns();

/** Static description of one Table 1 row. */
struct PatternInfo
{
    ErrorPattern pattern;
    std::string label;      //!< e.g. "1 Byte"
    std::string bits_range; //!< e.g. "2-8"
    double probability;     //!< Table 1 weight
};

/** Table 1 of the paper (probabilities sum to 1). */
const std::array<PatternInfo, numErrorPatterns>& patternTable();

/** Lookup of one row. */
const PatternInfo& patternInfo(ErrorPattern p);

/**
 * Classify a nonzero physical error mask into its Table 1 shape,
 * applying the priority rule (easier shapes win).
 */
ErrorPattern classifyErrorMask(const Bits288& mask);

/**
 * Draw one random instance of a pattern.
 *
 * Bit, 2-bit and 3-bit patterns choose uniform positions subject to
 * the classification constraints; pin/byte/beat/entry patterns flip
 * each bit of their region i.i.d. with p = 1/2 and redraw until the
 * mask classifies as the requested shape (the uniform random
 * corruption model the paper adopts for evaluation). A region is
 * filled one 64-bit word segment at a time, in bit order, and each
 * segment of len <= 64 bits is the low len bits of one draw (a pin's
 * 4 beats are the low 4 bits of one draw). That stream is sampler
 * version kSamplerVersion, pinned by tests/test_patterns.cpp.
 */
Bits288 sampleErrorMask(ErrorPattern p, Rng& rng);

/**
 * Version of sampleErrorMask's stream. Version 1 spent one draw per
 * region bit (its top bit, clear = set); version 2 takes a whole word
 * segment from one draw. The distribution is the same, the masks are
 * not, so the version is part of every campaign fingerprint: a
 * checkpoint or fleet worker of another version is refused, never
 * merged.
 */
constexpr int kSamplerVersion = 2;

/**
 * Visit every instance of an exhaustively enumerable pattern
 * (oneBit, onePin, oneByte, twoBits, threeBits). Fatal for
 * oneBeat / wholeEntry.
 *
 * @return the number of masks visited
 */
std::uint64_t forEachErrorMask(ErrorPattern p,
                               const std::function<void(const Bits288&)>& fn);

/**
 * Number of outer enumeration slots of an enumerable pattern: the
 * unit the campaign engine shards exhaustive evaluations by. Each
 * slot expands to a fixed, order-independent set of masks (one bit
 * position, one pin, one byte, or all pairs/triples anchored at one
 * first-bit position). Fatal for non-enumerable patterns.
 */
std::uint64_t enumerationOuterSize(ErrorPattern p);

/**
 * Visit the masks of outer slots [begin, end); the full enumeration
 * is recovered with begin = 0, end = enumerationOuterSize(p).
 *
 * @return the number of masks visited
 */
std::uint64_t
forEachErrorMaskInRange(ErrorPattern p, std::uint64_t begin,
                        std::uint64_t end,
                        const std::function<void(const Bits288&)>& fn);

/** Whether forEachErrorMask supports the pattern. */
bool patternIsEnumerable(ErrorPattern p);

} // namespace gpuecc

#endif // GPUECC_FAULTSIM_PATTERNS_HPP
