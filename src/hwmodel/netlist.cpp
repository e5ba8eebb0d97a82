#include "hwmodel/netlist.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <cmath>

#include "common/log.hpp"

namespace gpuecc {
namespace hw {

namespace {

/** AND2-equivalent area factors (standard gate equivalents). */
double
areaFactor(GateKind kind)
{
    switch (kind) {
      case GateKind::input:
      case GateKind::constant:
        return 0.0;
      case GateKind::notGate:
        return 0.5;
      case GateKind::and2:
      case GateKind::or2:
        return 1.0;
      case GateKind::xor2:
      case GateKind::xnor2:
        return 2.25;
      case GateKind::mux2:
        return 2.5;
      case GateKind::blackBox:
      case GateKind::busBit:
        return 0.0; // explicit (busBit is part of its block)
    }
    panic("areaFactor: unknown gate kind");
}

/** Delay factors in AND2-delay units. */
double
delayFactor(GateKind kind)
{
    switch (kind) {
      case GateKind::input:
      case GateKind::constant:
        return 0.0;
      case GateKind::notGate:
        return 0.4;
      case GateKind::and2:
      case GateKind::or2:
        return 1.0;
      case GateKind::xor2:
      case GateKind::xnor2:
        return 1.4;
      case GateKind::mux2:
        return 1.4;
      case GateKind::blackBox:
      case GateKind::busBit:
        return 0.0; // explicit (busBit is part of its block)
    }
    panic("delayFactor: unknown gate kind");
}

bool
commutative(GateKind kind)
{
    switch (kind) {
      case GateKind::and2:
      case GateKind::or2:
      case GateKind::xor2:
      case GateKind::xnor2:
        return true;
      default:
        return false;
    }
}

} // namespace

int
Netlist::input(const std::string& name)
{
    Node in_node{};
    in_node.kind = GateKind::input;
    nodes_.push_back(in_node);
    const int id = static_cast<int>(nodes_.size()) - 1;
    inputs_.push_back(id);
    input_names_.push_back(
        name.empty() ? "in" + std::to_string(inputs_.size() - 1)
                     : name);
    return id;
}

int
Netlist::constant(bool value)
{
    Node n{};
    n.kind = GateKind::constant;
    n.const_value = value;
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size()) - 1;
}

int
Netlist::gate(GateKind kind, int a, int b, int c)
{
    require(a >= 0 && a < static_cast<int>(nodes_.size()),
            "Netlist::gate: bad operand");
    if (commutative(kind) && b >= 0 && b < a)
        std::swap(a, b);
    const auto key = std::make_tuple(kind, a, b, c);
    if (const auto it = hash_.find(key); it != hash_.end())
        return it->second;
    Node n{};
    n.kind = kind;
    n.a = a;
    n.b = b;
    n.c = c;
    nodes_.push_back(n);
    const int id = static_cast<int>(nodes_.size()) - 1;
    hash_[key] = id;
    return id;
}

namespace {

template <typename Fn>
int
reduceTree(std::vector<int> nodes, Fn&& combine)
{
    require(!nodes.empty(), "Netlist reduction over no nodes");
    while (nodes.size() > 1) {
        std::vector<int> next;
        next.reserve((nodes.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < nodes.size(); i += 2)
            next.push_back(combine(nodes[i], nodes[i + 1]));
        if (nodes.size() % 2)
            next.push_back(nodes.back());
        nodes = std::move(next);
    }
    return nodes[0];
}

} // namespace

int
Netlist::andTree(std::vector<int> nodes)
{
    return reduceTree(std::move(nodes), [this](int a, int b) {
        return gate(GateKind::and2, a, b);
    });
}

int
Netlist::orTree(std::vector<int> nodes)
{
    return reduceTree(std::move(nodes), [this](int a, int b) {
        return gate(GateKind::or2, a, b);
    });
}

int
Netlist::xorTree(std::vector<int> nodes)
{
    return reduceTree(std::move(nodes), [this](int a, int b) {
        return gate(GateKind::xor2, a, b);
    });
}

std::vector<int>
Netlist::lut(const std::vector<int>& inputs, int out_bits,
             const std::string& name,
             std::function<std::uint64_t(std::uint64_t)> evaluate)
{
    (void)name;
    Node n{};
    n.kind = GateKind::blackBox;
    n.bb_inputs = inputs;
    n.bb_area = out_bits * std::pow(2.0, inputs.size()) / 4.0;
    n.bb_delay = 4.0 + static_cast<double>(inputs.size()) / 2.0;
    n.bb_eval = std::move(evaluate);
    nodes_.push_back(n);
    const int block = static_cast<int>(nodes_.size()) - 1;

    std::vector<int> bits;
    bits.reserve(out_bits);
    for (int b = 0; b < out_bits; ++b) {
        Node bit{};
        bit.kind = GateKind::busBit;
        bit.a = block;
        bit.b = b;
        nodes_.push_back(bit);
        bits.push_back(static_cast<int>(nodes_.size()) - 1);
    }
    return bits;
}

void
Netlist::output(const std::string& name, int node)
{
    require(node >= 0 && node < static_cast<int>(nodes_.size()),
            "Netlist::output: bad node");
    outputs_.push_back(node);
    output_names_.push_back(name);
}

const std::string&
Netlist::outputName(int i) const
{
    require(i >= 0 && i < static_cast<int>(output_names_.size()),
            "Netlist::outputName: bad index");
    return output_names_[i];
}

std::vector<bool>
Netlist::evaluate(const std::vector<bool>& input_values) const
{
    require(input_values.size() == inputs_.size(),
            "Netlist::evaluate: wrong input count");
    std::vector<char> value(nodes_.size(), 0);
    std::vector<std::uint64_t> bus_value(nodes_.size(), 0);
    std::size_t next_input = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        switch (n.kind) {
          case GateKind::input:
            value[i] = input_values[next_input++];
            break;
          case GateKind::constant:
            value[i] = n.const_value;
            break;
          case GateKind::notGate:
            value[i] = !value[n.a];
            break;
          case GateKind::and2:
            value[i] = value[n.a] && value[n.b];
            break;
          case GateKind::or2:
            value[i] = value[n.a] || value[n.b];
            break;
          case GateKind::xor2:
            value[i] = value[n.a] != value[n.b];
            break;
          case GateKind::xnor2:
            value[i] = value[n.a] == value[n.b];
            break;
          case GateKind::mux2:
            value[i] = value[n.a] ? value[n.c] : value[n.b];
            break;
          case GateKind::blackBox: {
            if (!n.bb_eval) {
                panic("Netlist::evaluate: black-box node has no "
                      "evaluator");
            }
            std::uint64_t in_bus = 0;
            for (std::size_t b = 0; b < n.bb_inputs.size(); ++b) {
                if (value[n.bb_inputs[b]])
                    in_bus |= std::uint64_t{1} << b;
            }
            bus_value[i] = n.bb_eval(in_bus);
            break;
          }
          case GateKind::busBit:
            value[i] = (bus_value[n.a] >> n.b) & 1;
            break;
        }
    }
    std::vector<bool> out;
    out.reserve(outputs_.size());
    for (int node : outputs_)
        out.push_back(value[node]);
    return out;
}

int
Netlist::gateCount() const
{
    int n = 0;
    for (const Node& node : nodes_) {
        if (node.kind != GateKind::input &&
            node.kind != GateKind::constant &&
            node.kind != GateKind::busBit) {
            ++n;
        }
    }
    return n;
}

std::string
Netlist::toVerilog(const std::string& module_name) const
{
    // Uniquify port names (fall back to positional names when the
    // builder reused labels).
    auto uniquified = [](const std::vector<std::string>& names,
                         const std::string& prefix) {
        std::set<std::string> seen(names.begin(), names.end());
        if (seen.size() == names.size())
            return names;
        std::vector<std::string> out;
        out.reserve(names.size());
        for (std::size_t i = 0; i < names.size(); ++i)
            out.push_back(prefix + std::to_string(i));
        return out;
    };
    const std::vector<std::string> in_names =
        uniquified(input_names_, "in");
    const std::vector<std::string> out_names =
        uniquified(output_names_, "out");

    std::map<int, std::string> ref; // node id -> verilog expression
    for (std::size_t i = 0; i < inputs_.size(); ++i)
        ref[inputs_[i]] = in_names[i];

    std::ostringstream body;
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
        const Node& n = nodes_[id];
        const std::string wire =
            std::string("n").append(std::to_string(id));
        switch (n.kind) {
          case GateKind::input:
            continue;
          case GateKind::constant:
            ref[id] = n.const_value ? "1'b1" : "1'b0";
            continue;
          case GateKind::blackBox:
            fatal("Netlist::toVerilog: black-box ROM nodes cannot be "
                  "exported (use the pure-gate circuits)");
          default:
            break;
        }
        body << "  wire " << wire << ";\n  assign " << wire << " = ";
        const std::string a = ref.at(n.a);
        switch (n.kind) {
          case GateKind::notGate:
            body << "~" << a;
            break;
          case GateKind::and2:
            body << a << " & " << ref.at(n.b);
            break;
          case GateKind::or2:
            body << a << " | " << ref.at(n.b);
            break;
          case GateKind::xor2:
            body << a << " ^ " << ref.at(n.b);
            break;
          case GateKind::xnor2:
            body << "~(" << a << " ^ " << ref.at(n.b) << ")";
            break;
          case GateKind::mux2:
            body << a << " ? " << ref.at(n.c) << " : " << ref.at(n.b);
            break;
          default:
            panic("Netlist::toVerilog: unexpected gate kind");
        }
        body << ";\n";
        ref[id] = wire;
    }

    std::ostringstream out;
    out << "// Generated by gpuecc hwmodel; " << gateCount()
        << " gates, " << areaAnd2() << " AND2-equivalents.\n";
    out << "module " << module_name << " (\n";
    for (std::size_t i = 0; i < in_names.size(); ++i)
        out << "  input wire " << in_names[i] << ",\n";
    for (std::size_t i = 0; i < out_names.size(); ++i) {
        out << "  output wire " << out_names[i]
            << (i + 1 < out_names.size() ? ",\n" : "\n");
    }
    out << ");\n" << body.str();
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
        out << "  assign " << out_names[i] << " = "
            << ref.at(outputs_[i]) << ";\n";
    }
    out << "endmodule\n";
    return out.str();
}

double
Netlist::nodeArea(const Node& n) const
{
    return n.kind == GateKind::blackBox ? n.bb_area : areaFactor(n.kind);
}

double
Netlist::areaAnd2() const
{
    double total = 0.0;
    for (const Node& n : nodes_)
        total += nodeArea(n);
    return total;
}

double
Netlist::delayUnits() const
{
    std::vector<double> arrival(nodes_.size(), 0.0);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        double in = 0.0;
        if (n.kind == GateKind::blackBox) {
            for (int src : n.bb_inputs)
                in = std::max(in, arrival[src]);
            arrival[i] = in + n.bb_delay;
            continue;
        }
        if (n.kind == GateKind::busBit) {
            arrival[i] = arrival[n.a];
            continue;
        }
        for (int src : {n.a, n.b, n.c}) {
            if (src >= 0)
                in = std::max(in, arrival[src]);
        }
        arrival[i] = in + delayFactor(n.kind);
    }
    double worst = 0.0;
    for (int out : outputs_)
        worst = std::max(worst, arrival[out]);
    return worst;
}

} // namespace hw
} // namespace gpuecc
