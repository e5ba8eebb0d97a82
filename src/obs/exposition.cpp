#include "obs/exposition.hpp"

#include <map>

namespace gpuecc::obs {

namespace {

bool
legalNameChar(char c, bool first)
{
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':')
        return true;
    return !first && c >= '0' && c <= '9';
}

} // namespace

std::string
prometheusName(const std::string& dotted)
{
    std::string out = "gpuecc_";
    for (char c : dotted)
        out.push_back(legalNameChar(c, false) ? c : '_');
    if (out.size() > 7 && !legalNameChar(out[7], true))
        out[7] = '_';
    return out;
}

std::string
prometheusLabelValue(const std::string& value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

std::string
renderPrometheusText(const std::vector<PromSample>& samples)
{
    // Group samples into families by name so every host's sample sits
    // under one TYPE header. First-appearance order throughout.
    struct Family
    {
        std::string metric;                 //!< rendered metric name
        std::vector<std::string> lines;     //!< sample lines
    };
    std::vector<Family> families;
    std::map<std::string, std::size_t> index;

    for (const PromSample& s : samples) {
        const std::string metric = prometheusName(s.name);
        auto [it, fresh] = index.emplace(metric, families.size());
        if (fresh)
            families.push_back({metric, {}});
        std::string line = metric;
        if (!s.host.empty())
            line += "{host=\"" + prometheusLabelValue(s.host) + "\"}";
        families[it->second].lines.push_back(
            line + " " + std::to_string(s.value));
    }

    std::string out;
    for (const Family& f : families) {
        out += "# TYPE " + f.metric + " counter\n";
        for (const std::string& line : f.lines)
            out += line + "\n";
    }
    return out;
}

} // namespace gpuecc::obs
