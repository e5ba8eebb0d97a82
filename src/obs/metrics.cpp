#include "obs/metrics.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/log.hpp"

namespace gpuecc::obs {

HistogramValue::HistogramValue(std::string name,
                               std::vector<std::uint64_t> bounds)
    : name(std::move(name)), bounds(std::move(bounds))
{
    require(!this->bounds.empty() &&
                std::adjacent_find(this->bounds.begin(),
                                   this->bounds.end(),
                                   std::greater_equal<>()) ==
                    this->bounds.end(),
            "metrics: histogram " + this->name +
                " bounds must be non-empty and strictly increasing");
    counts.assign(this->bounds.size() + 1, 0);
}

void
HistogramValue::observe(std::uint64_t value)
{
    const std::size_t bucket =
        std::lower_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin();
    counts[bucket] += 1;
}

void
HistogramValue::merge(const HistogramValue& other)
{
    require(bounds == other.bounds,
            "metrics: histogram " + name +
                " merged with different bounds");
    for (std::size_t b = 0; b < counts.size(); ++b)
        counts[b] += other.counts[b];
}

std::uint64_t
HistogramValue::total() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t c : counts)
        sum += c;
    return sum;
}

const CounterValue*
MetricsSnapshot::findCounter(const std::string& name) const
{
    for (const CounterValue& c : counters) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

const HistogramValue*
MetricsSnapshot::findHistogram(const std::string& name) const
{
    for (const HistogramValue& h : histograms) {
        if (h.name == name)
            return &h;
    }
    return nullptr;
}

} // namespace gpuecc::obs
