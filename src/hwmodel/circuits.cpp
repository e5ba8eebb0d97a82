#include "hwmodel/circuits.hpp"

#include <algorithm>
#include <array>

#include "codes/hsiao.hpp"
#include "codes/sec2bec.hpp"
#include "common/log.hpp"
#include "ecc/registry.hpp"
#include "ecc/rs_scheme.hpp"
#include "gf256/gf256.hpp"
#include "hwmodel/xor_network.hpp"
#include "rs/rs_code.hpp"

namespace gpuecc {
namespace hw {

namespace {

/** A port name: @p prefix followed by a decimal index, e.g. "d17". */
std::string
portName(const char* prefix, int index)
{
    return std::string(prefix).append(std::to_string(index));
}

/** Set data bit i (0..255) of an EntryData. */
EntryData
unitData(int i)
{
    EntryData d{};
    d[i / 64] = std::uint64_t{1} << (i % 64);
    return d;
}

/** Build a full adder; returns {sum, carry_out}. */
std::pair<int, int>
fullAdder(Netlist& nl, int a, int b, int cin)
{
    const int axb = nl.gate(GateKind::xor2, a, b);
    const int sum = nl.gate(GateKind::xor2, axb, cin);
    const int carry = nl.gate(
        GateKind::or2, nl.gate(GateKind::and2, a, b),
        nl.gate(GateKind::and2, cin, axb));
    return {sum, carry};
}

/**
 * End-around-carry subtractor: (a - b) mod 255 for 8-bit discrete
 * logs, via a + ~b with the carry wrapped around (Figure 7c's EAC
 * blocks).
 */
std::array<int, 8>
eacSubtract(Netlist& nl, const std::array<int, 8>& a,
            const std::array<int, 8>& b)
{
    std::array<int, 8> sum1{};
    int carry = nl.constant(false);
    for (int i = 0; i < 8; ++i) {
        auto [s, c] = fullAdder(nl, a[i], nl.notOf(b[i]), carry);
        sum1[i] = s;
        carry = c;
    }
    // End-around: add the carry back in (half-adder ripple).
    std::array<int, 8> out{};
    int inc = carry;
    for (int i = 0; i < 8; ++i) {
        out[i] = nl.gate(GateKind::xor2, sum1[i], inc);
        inc = nl.gate(GateKind::and2, sum1[i], inc);
    }
    // Canonicalize ones'-complement negative zero: 255 -> 0.
    const int all_ones =
        nl.andTree(std::vector<int>(out.begin(), out.end()));
    const int keep = nl.notOf(all_ones);
    for (int i = 0; i < 8; ++i)
        out[i] = nl.gate(GateKind::and2, out[i], keep);
    return out;
}

/** dlog ROM contents for the simulator (dlog(0) is a don't-care the
 *  decoders never use; emit 0). */
std::uint64_t
dlogRomContents(std::uint64_t in)
{
    return in == 0
        ? 0
        : static_cast<std::uint64_t>(
              gf256::dlog(static_cast<std::uint8_t>(in)));
}

/** Attach a dlog ROM over an 8-bit syndrome bus. */
std::array<int, 8>
dlogRom(Netlist& nl, const std::array<int, 8>& s)
{
    const auto bits = nl.lut(std::vector<int>(s.begin(), s.end()), 8,
                             "dlog", dlogRomContents);
    std::array<int, 8> out{};
    std::copy(bits.begin(), bits.end(), out.begin());
    return out;
}

/** value < k comparator for an 8-bit value and a constant. */
int
lessThanConst(Netlist& nl, const std::array<int, 8>& value, int k)
{
    int lt = nl.constant(false);
    int eq = nl.constant(true);
    for (int bit = 7; bit >= 0; --bit) {
        const int kb = (k >> bit) & 1;
        if (kb) {
            lt = nl.gate(GateKind::or2, lt,
                         nl.gate(GateKind::and2, eq,
                                 nl.notOf(value[bit])));
            eq = nl.gate(GateKind::and2, eq, value[bit]);
        } else {
            eq = nl.gate(GateKind::and2, eq, nl.notOf(value[bit]));
        }
    }
    return lt;
}

/** 8-bit equality comparator. */
int
equal8(Netlist& nl, const std::array<int, 8>& a,
       const std::array<int, 8>& b)
{
    std::vector<int> bits;
    for (int i = 0; i < 8; ++i)
        bits.push_back(nl.gate(GateKind::xnor2, a[i], b[i]));
    return nl.andTree(bits);
}

/** match-to-constant: AND of syndrome literals per the constant. */
int
matchConst(Netlist& nl, const std::array<int, 8>& syn, unsigned value)
{
    std::vector<int> lits;
    for (int r = 0; r < 8; ++r)
        lits.push_back((value >> r) & 1 ? syn[r] : nl.notOf(syn[r]));
    return nl.andTree(lits);
}

/** One-hot decode of an 8-bit position against constants 0..n-1. */
std::vector<int>
onehot(Netlist& nl, const std::array<int, 8>& pos, int n)
{
    std::vector<int> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i)
        out.push_back(matchConst(nl, pos, static_cast<unsigned>(i)));
    return out;
}

int
isZero8(Netlist& nl, const std::array<int, 8>& v)
{
    return nl.notOf(nl.orTree(std::vector<int>(v.begin(), v.end())));
}

} // namespace

std::vector<std::pair<int, std::vector<int>>>
probeEncoderTerms(const EntryScheme& scheme)
{
    const Bits288 zero = scheme.encode(EntryData{});
    require(zero.none(), "probeEncoderTerms: scheme encoder is affine");

    std::array<Bits288, 256> columns;
    for (int i = 0; i < 256; ++i)
        columns[i] = scheme.encode(unitData(i));

    std::vector<std::pair<int, std::vector<int>>> out;
    for (int p = 0; p < layout::entry_bits; ++p) {
        std::vector<int> terms;
        for (int i = 0; i < 256; ++i) {
            if (columns[i].get(p))
                terms.push_back(i);
        }
        if (terms.size() >= 2)
            out.emplace_back(p, std::move(terms));
    }
    return out;
}

Netlist
buildEntryEncoder(const EntryScheme& scheme, bool share)
{
    Netlist nl;
    std::vector<int> data(256);
    for (int i = 0; i < 256; ++i)
        data[i] = nl.input(portName("d", i));

    const auto probed = probeEncoderTerms(scheme);
    std::vector<std::vector<int>> terms;
    terms.reserve(probed.size());
    for (const auto& [p, bits] : probed) {
        std::vector<int> t;
        t.reserve(bits.size());
        for (int i : bits)
            t.push_back(data[i]);
        terms.push_back(std::move(t));
    }
    const auto outs = synthesizeXorNetwork(nl, terms, share);
    for (std::size_t i = 0; i < outs.size(); ++i)
        nl.output(portName("c", probed[i].first), outs[i]);
    return nl;
}

Netlist
buildBinaryDecoder(const Code72& code, bool sec2bec, bool interleaved,
                   bool csc, bool share)
{
    Netlist nl;
    std::vector<int> phys(layout::entry_bits);
    for (int p = 0; p < layout::entry_bits; ++p)
        phys[p] = nl.input(portName("r", p));

    const EntryLayout entry_layout(interleaved
                                       ? EntryLayout::Kind::interleaved
                                       : EntryLayout::Kind::nonInterleaved);
    const Gf2Matrix& h = code.parityCheck();

    std::array<int, 4> cw_due{};
    std::array<int, 4> correcting{};
    // match[cw][bit] and pair_match[cw][pair] feed the CSC flags.
    std::array<std::array<int, 72>, 4> match{};
    std::array<std::vector<int>, 4> pair_match;

    for (int cw = 0; cw < 4; ++cw) {
        std::array<int, 72> bits{};
        for (int j = 0; j < 72; ++j)
            bits[j] = phys[entry_layout.physicalFor(cw, j)];

        // Syndrome generation (Inner Decoder step 1).
        std::vector<std::vector<int>> sterms(8);
        for (int r = 0; r < 8; ++r) {
            for (int c = 0; c < 72; ++c) {
                if (h.get(r, c))
                    sterms[r].push_back(bits[c]);
            }
        }
        const auto syn_v = synthesizeXorNetwork(nl, sterms, share);
        std::array<int, 8> syn{};
        std::copy(syn_v.begin(), syn_v.end(), syn.begin());

        // H-column-match comparators.
        std::vector<int> all_matches;
        for (int c = 0; c < 72; ++c) {
            match[cw][c] = matchConst(nl, syn, code.columnSyndrome(c));
            all_matches.push_back(match[cw][c]);
        }
        if (sec2bec) {
            for (const auto& [a, b] : code.pairs()) {
                const unsigned ps = code.columnSyndrome(a) ^
                                    code.columnSyndrome(b);
                pair_match[cw].push_back(matchConst(nl, syn, ps));
                all_matches.push_back(pair_match[cw].back());
            }
        }

        // Corrected data outputs.
        for (int j = 0; j < 64; ++j) {
            int corr = match[cw][j];
            if (sec2bec) {
                for (std::size_t p = 0; p < code.pairs().size(); ++p) {
                    const auto& [a, b] = code.pairs()[p];
                    if (a == j || b == j) {
                        corr = nl.gate(GateKind::or2, corr,
                                       pair_match[cw][p]);
                    }
                }
            }
            nl.output(portName("d", cw * 64 + j),
                      nl.gate(GateKind::xor2, bits[j], corr));
        }

        const int nonzero =
            nl.orTree(std::vector<int>(syn.begin(), syn.end()));
        correcting[cw] = nl.andTree({nonzero, nl.orTree(all_matches)});
        cw_due[cw] = nl.andTree({nonzero, nl.notOf(correcting[cw])});
    }

    int due = nl.orTree(
        std::vector<int>(cw_due.begin(), cw_due.end()));

    if (csc) {
        // "Multiple codewords performing correction" detector.
        std::vector<int> pairs_correcting;
        for (int a = 0; a < 4; ++a) {
            for (int b = a + 1; b < 4; ++b) {
                pairs_correcting.push_back(nl.gate(
                    GateKind::and2, correcting[a], correcting[b]));
            }
        }
        const int multi = nl.orTree(pairs_correcting);

        // Byte flags: which physical byte each codeword corrects in.
        // (A 2b-pair correction maps to one byte by construction.)
        std::array<std::array<std::vector<int>, 36>, 4> byte_lines;
        for (int cw = 0; cw < 4; ++cw) {
            for (int j = 0; j < 72; ++j) {
                const int byte =
                    layout::byteOf(entry_layout.physicalFor(cw, j));
                byte_lines[cw][byte].push_back(match[cw][j]);
            }
            if (sec2bec) {
                for (std::size_t p = 0; p < code.pairs().size(); ++p) {
                    const int byte = layout::byteOf(
                        entry_layout.physicalFor(
                            cw, code.pairs()[p].first));
                    byte_lines[cw][byte].push_back(pair_match[cw][p]);
                }
            }
        }
        std::vector<int> same_byte_terms;
        for (int byte = 0; byte < 36; ++byte) {
            std::vector<int> per_cw;
            for (int cw = 0; cw < 4; ++cw) {
                const int flag = byte_lines[cw][byte].empty()
                    ? nl.constant(false)
                    : nl.orTree(byte_lines[cw][byte]);
                per_cw.push_back(nl.gate(GateKind::or2, flag,
                                         nl.notOf(correcting[cw])));
            }
            same_byte_terms.push_back(nl.andTree(per_cw));
        }
        const int same_byte = nl.orTree(same_byte_terms);

        // Pin flags: exactly one codeword bit maps to each pin;
        // pair corrections span two pins and correctly never pass.
        std::vector<int> same_pin_terms;
        for (int pin = 0; pin < 72; ++pin) {
            std::vector<int> per_cw;
            for (int cw = 0; cw < 4; ++cw) {
                int line = nl.constant(false);
                for (int j = 0; j < 72; ++j) {
                    const int p = entry_layout.physicalFor(cw, j);
                    if (layout::pinOf(p) == pin) {
                        line = match[cw][j];
                        break;
                    }
                }
                per_cw.push_back(nl.gate(GateKind::or2, line,
                                         nl.notOf(correcting[cw])));
            }
            same_pin_terms.push_back(nl.andTree(per_cw));
        }
        const int same_pin = nl.orTree(same_pin_terms);

        const int csc_due = nl.andTree(
            {multi,
             nl.notOf(nl.gate(GateKind::or2, same_byte, same_pin))});
        due = nl.gate(GateKind::or2, due, csc_due);
    }

    nl.output("due", due);
    return nl;
}

Netlist
buildSscDecoder(bool csc, bool share)
{
    Netlist nl;
    std::vector<int> phys(layout::entry_bits);
    for (int p = 0; p < layout::entry_bits; ++p)
        phys[p] = nl.input(portName("r", p));

    const RsCode code(18, 16);

    std::array<int, 2> cw_due{};
    std::array<int, 2> correcting{};
    std::array<std::array<int, 8>, 2> position{};
    std::array<std::array<int, 8>, 2> magnitude{};

    for (int cw = 0; cw < 2; ++cw) {
        // Syndromes are GF(2)-linear in the received bits: probe.
        std::vector<std::vector<int>> sterms(16);
        for (int pos = 0; pos < 18; ++pos) {
            for (int t = 0; t < 8; ++t) {
                std::vector<std::uint8_t> word(18, 0);
                word[pos] = static_cast<std::uint8_t>(1u << t);
                const auto s = code.syndromes(word);
                const int in = phys[InterleavedSscScheme::physicalBit(
                    cw, pos, t)];
                for (int j = 0; j < 2; ++j) {
                    for (int b = 0; b < 8; ++b) {
                        if ((s[j] >> b) & 1)
                            sterms[8 * j + b].push_back(in);
                    }
                }
            }
        }
        const auto syn = synthesizeXorNetwork(nl, sterms, share);
        std::array<int, 8> s0{}, s1{};
        for (int b = 0; b < 8; ++b) {
            s0[b] = syn[b];
            s1[b] = syn[8 + b];
        }
        magnitude[cw] = s0;

        const int z0 = isZero8(nl, s0);
        const int z1 = isZero8(nl, s1);
        const int clean = nl.gate(GateKind::and2, z0, z1);

        // One-shot error location: dlog ROMs + EAC subtractor.
        const std::array<int, 8> l0 = dlogRom(nl, s0);
        const std::array<int, 8> l1 = dlogRom(nl, s1);
        position[cw] = eacSubtract(nl, l1, l0);
        const int valid = lessThanConst(nl, position[cw], 18);

        correcting[cw] = nl.andTree(
            {nl.notOf(clean), nl.notOf(z0), nl.notOf(z1), valid});
        cw_due[cw] = nl.andTree(
            {nl.notOf(clean), nl.notOf(correcting[cw])});

        // Correction: one-hot select and magnitude XOR on the 16
        // data symbols.
        const auto sel = onehot(nl, position[cw], 18);
        for (int pos = 2; pos < 18; ++pos) {
            const int gated = nl.gate(GateKind::and2, sel[pos],
                                      correcting[cw]);
            for (int t = 0; t < 8; ++t) {
                const int in =
                    phys[InterleavedSscScheme::physicalBit(cw, pos, t)];
                const int fix = nl.gate(GateKind::and2, gated, s0[t]);
                nl.output(portName("d", cw * 128 + (pos - 2) * 8 + t),
                          nl.gate(GateKind::xor2, in, fix));
            }
        }
    }

    int due = nl.gate(GateKind::or2, cw_due[0], cw_due[1]);

    if (csc) {
        // Both-correcting consistency: the corrected slots must form
        // one physical byte (same beat-pair, same column group) or
        // one pin group (same column group, opposite beat-pairs),
        // with magnitudes confined to the matching beat half.
        const int both = nl.gate(GateKind::and2, correcting[0],
                                 correcting[1]);
        // Column group j = pos mod 9 via a small ROM; beat-pair
        // h = pos >= 9.
        std::array<int, 2> half{};
        std::array<int, 8> j0{}, j1{};
        j0.fill(-1);
        j1.fill(-1);
        for (int cw = 0; cw < 2; ++cw) {
            half[cw] = nl.notOf(lessThanConst(nl, position[cw], 9));
            const auto mod_rom = nl.lut(
                std::vector<int>(position[cw].begin(),
                                 position[cw].begin() + 5),
                4, "mod9",
                [](std::uint64_t v) { return v % 9; });
            auto& target = cw == 0 ? j0 : j1;
            const int zero = nl.constant(false);
            for (int b = 0; b < 8; ++b)
                target[b] = b < 4 ? mod_rom[b] : zero;
        }
        const int same_group = equal8(nl, j0, j1);
        const int same_half = nl.gate(GateKind::xnor2, half[0],
                                      half[1]);
        // Magnitude beat-confinement checks.
        std::array<int, 2> lo_zero{}, hi_zero{};
        for (int cw = 0; cw < 2; ++cw) {
            lo_zero[cw] = nl.notOf(nl.orTree(
                {magnitude[cw][0], magnitude[cw][1], magnitude[cw][2],
                 magnitude[cw][3]}));
            hi_zero[cw] = nl.notOf(nl.orTree(
                {magnitude[cw][4], magnitude[cw][5], magnitude[cw][6],
                 magnitude[cw][7]}));
        }
        const int same_beat_mags = nl.gate(
            GateKind::or2,
            nl.gate(GateKind::and2, lo_zero[0], lo_zero[1]),
            nl.gate(GateKind::and2, hi_zero[0], hi_zero[1]));
        const int byte_ok = nl.andTree(
            {same_group, same_half, same_beat_mags});
        const int pin_ok = nl.andTree(
            {same_group, nl.notOf(same_half)});
        const int csc_due = nl.andTree(
            {both, nl.notOf(nl.gate(GateKind::or2, byte_ok, pin_ok))});
        due = nl.gate(GateKind::or2, due, csc_due);
    }

    nl.output("due", due);
    return nl;
}

Netlist
buildDsdPlusDecoder(bool share)
{
    Netlist nl;
    std::vector<int> phys(layout::entry_bits);
    for (int p = 0; p < layout::entry_bits; ++p)
        phys[p] = nl.input(portName("r", p));

    const RsCode code(36, 32);

    // Probe the 32 syndrome bits' XOR terms.
    std::vector<std::vector<int>> sterms(32);
    for (int pos = 0; pos < 36; ++pos) {
        for (int t = 0; t < 8; ++t) {
            std::vector<std::uint8_t> word(36, 0);
            word[pos] = static_cast<std::uint8_t>(1u << t);
            const auto s = code.syndromes(word);
            const int in =
                phys[8 * Rs3632Scheme::physicalByteOf(pos) + t];
            for (int j = 0; j < 4; ++j) {
                for (int b = 0; b < 8; ++b) {
                    if ((s[j] >> b) & 1)
                        sterms[8 * j + b].push_back(in);
                }
            }
        }
    }
    const auto syn = synthesizeXorNetwork(nl, sterms, share);

    std::array<std::array<int, 8>, 4> s{};
    for (int j = 0; j < 4; ++j) {
        for (int b = 0; b < 8; ++b)
            s[j][b] = syn[8 * j + b];
    }

    std::array<int, 4> zero{};
    for (int j = 0; j < 4; ++j)
        zero[j] = isZero8(nl, s[j]);
    const int clean = nl.andTree(
        std::vector<int>(zero.begin(), zero.end()));
    const int any_zero = nl.orTree(
        std::vector<int>(zero.begin(), zero.end()));

    // Three check-byte-pair location estimates (Figure 7c).
    std::array<std::array<int, 8>, 4> dlog{};
    for (int j = 0; j < 4; ++j)
        dlog[j] = dlogRom(nl, s[j]);
    const auto p01 = eacSubtract(nl, dlog[1], dlog[0]);
    const auto p12 = eacSubtract(nl, dlog[2], dlog[1]);
    const auto p23 = eacSubtract(nl, dlog[3], dlog[2]);

    const int agree = nl.gate(GateKind::and2, equal8(nl, p01, p12),
                              equal8(nl, p12, p23));
    const int valid = lessThanConst(nl, p01, 36);
    const int correcting = nl.andTree(
        {nl.notOf(clean), nl.notOf(any_zero), agree, valid});
    const int due = nl.andTree({nl.notOf(clean), nl.notOf(correcting)});

    const auto sel = onehot(nl, p01, 36);
    for (int pos = 4; pos < 36; ++pos) {
        const int gated = nl.gate(GateKind::and2, sel[pos], correcting);
        for (int t = 0; t < 8; ++t) {
            const int in =
                phys[8 * Rs3632Scheme::physicalByteOf(pos) + t];
            const int fix = nl.gate(GateKind::and2, gated, s[0][t]);
            nl.output(portName("d", (pos - 4) * 8 + t),
                      nl.gate(GateKind::xor2, in, fix));
        }
    }
    nl.output("due", due);
    return nl;
}

std::vector<SynthesisReport>
table3Reports()
{
    std::vector<SynthesisReport> rows;
    auto add = [&rows](const std::string& name, const std::string& point,
                       const Netlist& nl) {
        rows.push_back({name, point, nl.areaAnd2(), nl.delayNs()});
    };

    const auto hsiao = makeScheme("ni-secded");
    const auto sec2bec = makeScheme("ni-sec2bec");
    const auto issc = makeScheme("i-ssc");
    const auto dsd = makeScheme("ssc-dsd+");

    // Encoders. Interleaving and the CSC are decoder-side (wires /
    // output logic), so Duet/Trio share these encoders.
    add("Enc SEC-DED (baseline)", "Eff.",
        buildEntryEncoder(*hsiao, true));
    add("Enc SEC-DED (baseline)", "Perf.",
        buildEntryEncoder(*hsiao, false));
    add("Enc SEC-2bEC (Duet/Trio)", "Eff.",
        buildEntryEncoder(*sec2bec, true));
    add("Enc SEC-2bEC (Duet/Trio)", "Perf.",
        buildEntryEncoder(*sec2bec, false));
    add("Enc I:SSC", "Eff.", buildEntryEncoder(*issc, true));
    add("Enc I:SSC", "Perf.", buildEntryEncoder(*issc, false));
    add("Enc SSC-DSD+", "Eff.", buildEntryEncoder(*dsd, true));
    add("Enc SSC-DSD+", "Perf.", buildEntryEncoder(*dsd, false));

    // Decoders.
    const Code72 hsiao_code(hsiao7264Matrix(), Code72::stride4Pairs());
    const Code72 trio_code(sec2becInterleavedMatrix(),
                           Code72::stride4Pairs());
    add("Dec SEC-DED (baseline)", "Eff.",
        buildBinaryDecoder(hsiao_code, false, false, false, true));
    add("Dec SEC-DED (baseline)", "Perf.",
        buildBinaryDecoder(hsiao_code, false, false, false, false));
    add("Dec I:SEC-DED", "Eff.",
        buildBinaryDecoder(hsiao_code, false, true, false, true));
    add("Dec I:SEC-DED", "Perf.",
        buildBinaryDecoder(hsiao_code, false, true, false, false));
    add("Dec DuetECC", "Eff.",
        buildBinaryDecoder(hsiao_code, false, true, true, true));
    add("Dec DuetECC", "Perf.",
        buildBinaryDecoder(hsiao_code, false, true, true, false));
    add("Dec TrioECC", "Eff.",
        buildBinaryDecoder(trio_code, true, true, true, true));
    add("Dec TrioECC", "Perf.",
        buildBinaryDecoder(trio_code, true, true, true, false));
    add("Dec I:SSC", "Eff.", buildSscDecoder(false, true));
    add("Dec I:SSC", "Perf.", buildSscDecoder(false, false));
    add("Dec I:SSC+CSC", "Eff.", buildSscDecoder(true, true));
    add("Dec I:SSC+CSC", "Perf.", buildSscDecoder(true, false));
    add("Dec SSC-DSD+", "Eff.", buildDsdPlusDecoder(true));
    add("Dec SSC-DSD+", "Perf.", buildDsdPlusDecoder(false));
    return rows;
}

} // namespace hw
} // namespace gpuecc
