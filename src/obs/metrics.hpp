/**
 * @file
 * Campaign metrics registry: counters and fixed-bucket histograms.
 *
 * The hot path (a shard worker bumping a counter or recording a shard
 * duration) must never take a lock and must never perturb campaign
 * determinism, so every thread accumulates into a private thread-local
 * shard of plain integers; shards merge into the registry's global
 * tallies when their owning thread exits (the campaign thread pool
 * joins its workers before the result is read) or when the owner calls
 * flushThisThread(). snapshot() therefore observes exactly the
 * retired/flushed shards — a quiescent point, not a torn mid-run read
 * — which keeps the whole subsystem data-race-free without a single
 * atomic on the hot path.
 *
 * Merging is plain 64-bit addition per counter and per histogram
 * bucket, so the merged totals are independent of which thread did
 * which work and of merge order: the same associativity argument the
 * campaign tallies rest on.
 *
 * Metric registration is not thread-safe against concurrent hot-path
 * use: register every metric (counter()/histogram()) before
 * spawning the threads that will bump it, as the campaign runner does.
 */

#ifndef GPUECC_OBS_METRICS_HPP
#define GPUECC_OBS_METRICS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace gpuecc::obs {

/** Handle to a registered metric (an index into the registry). */
using MetricId = std::size_t;

/** One counter's merged value at snapshot time. */
struct CounterValue
{
    std::string name;
    std::uint64_t value = 0;
};

/** One histogram's merged bucket counts at snapshot time. */
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

    /** Total observations across all buckets. */
    std::uint64_t total() const;
};

/** All merged metric values at one quiescent point. */
struct MetricsSnapshot
{
    std::vector<CounterValue> counters;
    std::vector<HistogramValue> histograms;

    /** Lookup by name; nullptr when absent. */
    const CounterValue* findCounter(const std::string& name) const;
    const HistogramValue* findHistogram(const std::string& name) const;

    /**
     * The delta of this snapshot over an earlier baseline: counters
     * and histogram buckets subtract (metrics absent from the
     * baseline pass through). This is
     * how a campaign reports only its own activity when several runs
     * share one process.
     */
    MetricsSnapshot since(const MetricsSnapshot& baseline) const;
};

/** The process-wide registry; use metrics() for the instance. */
class MetricsRegistry
{
  public:
    /**
     * Register (or look up) a counter by name. Idempotent: the same
     * name always returns the same id.
     */
    MetricId counter(const std::string& name);

    /**
     * Register (or look up) a histogram with fixed inclusive upper
     * bucket bounds (strictly increasing, non-empty). Re-registering
     * an existing histogram with different bounds is an error.
     */
    MetricId histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds);

    /** Hot path: bump a counter in this thread's shard (lock-free). */
    void add(MetricId counter_id, std::uint64_t delta = 1);

    /** Hot path: record one observation (lock-free). */
    void observe(MetricId histogram_id, std::uint64_t value);

    /**
     * Merge the calling thread's shard into the global tallies and
     * clear it. Threads that exit merge automatically; the campaign
     * runner calls this for the pool's caller-thread worker.
     */
    void flushThisThread();

    /** Merged values of all retired/flushed shards. */
    MetricsSnapshot snapshot();

    /**
     * Zero every merged value and invalidate all live thread shards
     * (tests). Metric registrations survive.
     */
    void resetValues();

  private:
    friend struct TlsShard;
    struct Impl;
    Impl& impl();
};

/** The process-wide metrics registry. */
MetricsRegistry& metrics();

} // namespace gpuecc::obs

#endif // GPUECC_OBS_METRICS_HPP
