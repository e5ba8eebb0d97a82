/**
 * @file
 * Campaign metric values: counters and fixed-bucket histograms.
 *
 * These are plain values, not a registry: each campaign driver counts
 * its own facts in its own state (scheme clocks, checkpoint counts,
 * per-worker histograms) and renders them into the result's
 * MetricsSnapshot once, when the run finishes. So a snapshot holds
 * exactly one run's activity, whatever else ran in the process.
 *
 * Histogram merging is plain 64-bit addition per bucket, so merged
 * totals are independent of which thread observed what and of merge
 * order: the same associativity argument the campaign tallies rest
 * on.
 */

#ifndef GPUECC_OBS_METRICS_HPP
#define GPUECC_OBS_METRICS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace gpuecc::obs {

/** One counter's value. */
struct CounterValue
{
    std::string name;
    std::uint64_t value = 0;
};

/** One histogram's bucket counts. */
struct HistogramValue
{
    std::string name;
    /** Inclusive upper bounds; strictly increasing. */
    std::vector<std::uint64_t> bounds;
    /**
     * counts[i] tallies observations v with v <= bounds[i] (and >
     * bounds[i-1]); counts.back() is the overflow bucket for
     * v > bounds.back(), so counts.size() == bounds.size() + 1.
     */
    std::vector<std::uint64_t> counts;

    /** An empty histogram: every bucket, overflow included, at 0. */
    HistogramValue(std::string name, std::vector<std::uint64_t> bounds);

    /** Count one observation in its bucket. */
    void observe(std::uint64_t value);

    /** Add @p other's buckets into these (same bounds). */
    void merge(const HistogramValue& other);

    /** Total observations across all buckets. */
    std::uint64_t total() const;
};

/** One run's counters and histograms. */
struct MetricsSnapshot
{
    std::vector<CounterValue> counters;
    std::vector<HistogramValue> histograms;

    /** Lookup by name; nullptr when absent. */
    const CounterValue* findCounter(const std::string& name) const;
    const HistogramValue* findHistogram(const std::string& name) const;
};

} // namespace gpuecc::obs

#endif // GPUECC_OBS_METRICS_HPP
