/** @file Tests for the gate-level hardware model. */

#include <gtest/gtest.h>

#include "codes/hsiao.hpp"
#include "codes/sec2bec.hpp"
#include "common/rng.hpp"
#include "ecc/registry.hpp"
#include "hwmodel/circuits.hpp"
#include "hwmodel/netlist.hpp"
#include "hwmodel/xor_network.hpp"

namespace gpuecc {
namespace hw {
namespace {

TEST(Netlist, SmallGateAreaAndDelay)
{
    Netlist nl;
    const int a = nl.input("a");
    const int b = nl.input("b");
    const int x = nl.gate(GateKind::xor2, a, b);
    nl.output("x", x);
    EXPECT_EQ(nl.gateCount(), 1);
    EXPECT_DOUBLE_EQ(nl.areaAnd2(), 2.25);
    EXPECT_DOUBLE_EQ(nl.delayUnits(), 1.4);
}

TEST(Netlist, StructuralHashingDeduplicates)
{
    Netlist nl;
    const int a = nl.input("a");
    const int b = nl.input("b");
    const int g1 = nl.gate(GateKind::and2, a, b);
    const int g2 = nl.gate(GateKind::and2, b, a); // commuted
    EXPECT_EQ(g1, g2);
    EXPECT_EQ(nl.gateCount(), 1);
    const int g3 = nl.gate(GateKind::or2, a, b);
    EXPECT_NE(g3, g1);
}

TEST(Netlist, TreesAreLogDepth)
{
    Netlist nl;
    std::vector<int> ins;
    for (int i = 0; i < 32; ++i)
        ins.push_back(nl.input("i"));
    nl.output("x", nl.xorTree(ins));
    EXPECT_EQ(nl.gateCount(), 31);
    EXPECT_DOUBLE_EQ(nl.delayUnits(), 5 * 1.4); // ceil(log2 32) levels
}

TEST(Netlist, EvaluateBasicGates)
{
    Netlist nl;
    const int a = nl.input("a");
    const int b = nl.input("b");
    nl.output("and", nl.gate(GateKind::and2, a, b));
    nl.output("xor", nl.gate(GateKind::xor2, a, b));
    nl.output("not", nl.notOf(a));
    nl.output("mux", nl.gate(GateKind::mux2, a, b, nl.constant(true)));
    const auto v = nl.evaluate({true, false});
    EXPECT_EQ(v, (std::vector<bool>{false, true, false, true}));
}

TEST(XorNetwork, SharedAndUnsharedComputeSameFunctions)
{
    Rng rng(1);
    // Random 8-output XOR system over 24 inputs.
    std::vector<std::vector<int>> term_indices(8);
    for (auto& t : term_indices) {
        for (int i = 0; i < 24; ++i) {
            if (rng.nextBool(0.5))
                t.push_back(i);
        }
    }
    auto build = [&](bool share) {
        auto nl = std::make_unique<Netlist>();
        std::vector<int> ins;
        for (int i = 0; i < 24; ++i)
            ins.push_back(nl->input("i"));
        std::vector<std::vector<int>> terms;
        for (const auto& t : term_indices) {
            std::vector<int> nodes;
            for (int i : t)
                nodes.push_back(ins[i]);
            terms.push_back(nodes);
        }
        for (int out : synthesizeXorNetwork(*nl, terms, share))
            nl->output("o", out);
        return nl;
    };
    const auto flat = build(false);
    const auto shared = build(true);
    EXPECT_LE(shared->gateCount(), flat->gateCount());

    for (int trial = 0; trial < 100; ++trial) {
        std::vector<bool> in(24);
        for (int i = 0; i < 24; ++i)
            in[i] = rng.nextBool(0.5);
        EXPECT_EQ(flat->evaluate(in), shared->evaluate(in));
    }
}

TEST(Circuits, EncoderCircuitMatchesSoftwareEncoder)
{
    Rng rng(2);
    for (const char* id : {"ni-secded", "i-secded", "ni-sec2bec",
                           "i-ssc", "ssc-dsd+"}) {
        const auto scheme = makeScheme(id);
        for (bool share : {false, true}) {
            const Netlist nl = buildEntryEncoder(*scheme, share);
            const auto probed = probeEncoderTerms(*scheme);
            ASSERT_EQ(static_cast<std::size_t>(nl.outputCount()),
                      probed.size());
            for (int trial = 0; trial < 10; ++trial) {
                EntryData data{rng.next64(), rng.next64(), rng.next64(),
                               rng.next64()};
                const Bits288 encoded = scheme->encode(data);
                std::vector<bool> in(256);
                for (int i = 0; i < 256; ++i)
                    in[i] = (data[i / 64] >> (i % 64)) & 1;
                const auto out = nl.evaluate(in);
                for (std::size_t k = 0; k < probed.size(); ++k) {
                    ASSERT_EQ(out[k],
                              encoded.get(probed[k].first) == 1)
                        << id << " output " << k;
                }
            }
        }
    }
}

TEST(Circuits, BinaryDecoderCircuitMatchesSoftwareDecoder)
{
    // Gate-level DuetECC and TrioECC decoders against the library
    // decode path, over random few-bit error masks.
    struct Case
    {
        const char* id;
        bool sec2bec;
        bool csc;
    };
    for (const Case c : {Case{"i-secded", false, false},
                         Case{"duet", false, true},
                         Case{"trio", true, true}}) {
        const auto scheme = makeScheme(c.id);
        const Code72 code(
            c.sec2bec ? sec2becInterleavedMatrix() : hsiao7264Matrix(),
            Code72::stride4Pairs());
        const Netlist nl =
            buildBinaryDecoder(code, c.sec2bec, true, c.csc, true);
        Rng rng(3);
        for (int trial = 0; trial < 200; ++trial) {
            EntryData data{rng.next64(), rng.next64(), rng.next64(),
                           rng.next64()};
            Bits288 received = scheme->encode(data);
            const int nbits = static_cast<int>(rng.nextBounded(5));
            for (int i = 0; i < nbits; ++i)
                received.flip(static_cast<int>(rng.nextBounded(288)));

            const EntryDecode sw = scheme->decode(received);

            std::vector<bool> in(288);
            for (int i = 0; i < 288; ++i)
                in[i] = received.get(i);
            const auto out = nl.evaluate(in);
            // Outputs: 64 data bits per codeword in order, then due.
            const bool hw_due = out[nl.outputCount() - 1];
            ASSERT_EQ(hw_due,
                      sw.status == EntryDecode::Status::due)
                << c.id << " trial " << trial;
            if (!hw_due) {
                for (int w = 0; w < 4; ++w) {
                    for (int j = 0; j < 64; ++j) {
                        ASSERT_EQ(out[w * 64 + j],
                                  ((sw.data[w] >> j) & 1) == 1)
                            << c.id << " word " << w << " bit " << j;
                    }
                }
            }
        }
    }
}

TEST(Circuits, Table3ShapeMatchesPaper)
{
    const auto rows = table3Reports();
    ASSERT_FALSE(rows.empty());

    auto find = [&rows](const std::string& name,
                        const std::string& point) -> const
        SynthesisReport& {
        for (const auto& r : rows) {
            if (r.circuit == name && r.design_point == point)
                return r;
        }
        ADD_FAILURE() << "missing row " << name << " " << point;
        static SynthesisReport dummy{};
        return dummy;
    };

    const auto& enc_base = find("Enc SEC-DED (baseline)", "Perf.");
    const auto& dec_base = find("Dec SEC-DED (baseline)", "Eff.");
    // Calibration anchor: baseline encoder at ~0.09 ns and roughly
    // the paper's 1176-AND2 scale.
    EXPECT_NEAR(enc_base.delay_ns, 0.09, 0.01);
    EXPECT_GT(enc_base.area_and2, 800);
    EXPECT_LT(enc_base.area_and2, 2500);
    EXPECT_GT(dec_base.area_and2, 1500);
    EXPECT_LT(dec_base.area_and2, 5000);

    // Ordering claims from the paper: Duet/Trio are modest additions;
    // the symbol decoders are larger; SSC-DSD+ is the largest and
    // slowest decoder.
    const auto& duet = find("Dec DuetECC", "Eff.");
    const auto& trio = find("Dec TrioECC", "Eff.");
    const auto& ssc = find("Dec I:SSC", "Eff.");
    const auto& dsd = find("Dec SSC-DSD+", "Eff.");
    EXPECT_GT(duet.area_and2, dec_base.area_and2);
    EXPECT_GT(trio.area_and2, duet.area_and2);
    EXPECT_GT(dsd.area_and2, trio.area_and2);
    EXPECT_GT(dsd.area_and2, ssc.area_and2);
    EXPECT_GT(dsd.delay_ns, dec_base.delay_ns);

    // Interleaving itself is wires-only: same cost as the baseline.
    const auto& i_secded = find("Dec I:SEC-DED", "Perf.");
    const auto& base_perf = find("Dec SEC-DED (baseline)", "Perf.");
    EXPECT_NEAR(i_secded.area_and2, base_perf.area_and2,
                base_perf.area_and2 * 0.02);

    // Perf. points are never slower than Eff. points.
    for (const char* name :
         {"Dec SEC-DED (baseline)", "Dec DuetECC", "Dec TrioECC",
          "Dec I:SSC", "Dec SSC-DSD+"}) {
        EXPECT_LE(find(name, "Perf.").delay_ns,
                  find(name, "Eff.").delay_ns + 1e-9)
            << name;
        EXPECT_GE(find(name, "Perf.").area_and2,
                  find(name, "Eff.").area_and2 * 0.95)
            << name;
    }
}

TEST(Circuits, LutCostHeuristicAndSimulation)
{
    Netlist nl;
    std::vector<int> ins;
    for (int i = 0; i < 8; ++i)
        ins.push_back(nl.input(std::string("i").append(std::to_string(i))));
    const auto rom = nl.lut(ins, 8, "square",
                            [](std::uint64_t v) { return (v * v) & 0xFF; });
    ASSERT_EQ(rom.size(), 8u);
    for (int b = 0; b < 8; ++b)
        nl.output(std::string("r").append(std::to_string(b)), rom[b]);
    EXPECT_DOUBLE_EQ(nl.areaAnd2(), 8 * 256 / 4.0);
    EXPECT_DOUBLE_EQ(nl.delayUnits(), 4.0 + 4.0);

    // The attached evaluator makes the ROM simulatable.
    std::vector<bool> in(8, false);
    in[0] = in[2] = true; // value 5 -> 25
    const auto out = nl.evaluate(in);
    unsigned v = 0;
    for (int b = 0; b < 8; ++b)
        v |= static_cast<unsigned>(out[b]) << b;
    EXPECT_EQ(v, 25u);
}

namespace {

/** Drive a decoder netlist with a received entry; returns
 *  (due, decoded data). Output convention: data bits then due. */
std::pair<bool, EntryData>
runDecoder(const Netlist& nl, const Bits288& received)
{
    std::vector<bool> in(288);
    for (int i = 0; i < 288; ++i)
        in[i] = received.get(i);
    const auto out = nl.evaluate(in);
    EntryData data{};
    for (int i = 0; i < 256; ++i) {
        if (out[i])
            data[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    return {out[nl.outputCount() - 1], data};
}

} // namespace

TEST(Circuits, SscDecoderCircuitMatchesSoftwareDecoder)
{
    // The one-shot Reed-Solomon decoder netlist (dlog ROMs + EAC
    // subtractors + one-hot correction) against decodeSscOneShot
    // through the I:SSC scheme, over random few-symbol errors.
    const auto scheme = makeScheme("i-ssc");
    const Netlist nl = buildSscDecoder(false, true);
    Rng rng(11);
    for (int trial = 0; trial < 300; ++trial) {
        EntryData data{rng.next64(), rng.next64(), rng.next64(),
                       rng.next64()};
        Bits288 received = scheme->encode(data);
        const int nbits = static_cast<int>(rng.nextBounded(4));
        for (int i = 0; i < nbits; ++i)
            received.flip(static_cast<int>(rng.nextBounded(288)));

        const EntryDecode sw = scheme->decode(received);
        const auto [hw_due, hw_data] = runDecoder(nl, received);
        ASSERT_EQ(hw_due, sw.status == EntryDecode::Status::due)
            << "trial " << trial;
        if (!hw_due) {
            ASSERT_EQ(hw_data, sw.data) << "trial " << trial;
        }
    }
}

TEST(Circuits, SscDecoderCircuitCorrectsWholeBytes)
{
    const auto scheme = makeScheme("i-ssc");
    const Netlist nl = buildSscDecoder(false, true);
    Rng rng(12);
    const EntryData data{rng.next64(), rng.next64(), rng.next64(),
                         rng.next64()};
    const Bits288 golden = scheme->encode(data);
    for (int byte = 0; byte < 36; ++byte) {
        Bits288 received = golden;
        for (int t = 0; t < 8; ++t)
            received.flip(8 * byte + t);
        const auto [hw_due, hw_data] = runDecoder(nl, received);
        ASSERT_FALSE(hw_due) << "byte " << byte;
        ASSERT_EQ(hw_data, data) << "byte " << byte;
    }
}

TEST(Circuits, DsdPlusDecoderCircuitMatchesSoftwareDecoder)
{
    const auto scheme = makeScheme("ssc-dsd+");
    const Netlist nl = buildDsdPlusDecoder(true);
    Rng rng(13);
    for (int trial = 0; trial < 300; ++trial) {
        EntryData data{rng.next64(), rng.next64(), rng.next64(),
                       rng.next64()};
        Bits288 received = scheme->encode(data);
        const int nbits = static_cast<int>(rng.nextBounded(4));
        for (int i = 0; i < nbits; ++i)
            received.flip(static_cast<int>(rng.nextBounded(288)));

        const EntryDecode sw = scheme->decode(received);
        const auto [hw_due, hw_data] = runDecoder(nl, received);
        ASSERT_EQ(hw_due, sw.status == EntryDecode::Status::due)
            << "trial " << trial;
        if (!hw_due) {
            ASSERT_EQ(hw_data, sw.data) << "trial " << trial;
        }
    }
}

} // namespace
} // namespace hw
} // namespace gpuecc
