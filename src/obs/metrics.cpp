#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace gpuecc::obs {

namespace {

/** Metric kind, packed into the low bit of a MetricId. */
enum Kind : std::size_t
{
    kCounter = 0,
    kHistogram = 1,
};

constexpr MetricId
packId(Kind kind, std::size_t index)
{
    return (index << 1) | static_cast<std::size_t>(kind);
}

constexpr Kind
kindOf(MetricId id)
{
    return static_cast<Kind>(id & 1);
}

constexpr std::size_t
indexOf(MetricId id)
{
    return id >> 1;
}

} // namespace

/**
 * One thread's private, lock-free accumulation buffers.
 *
 * False-sharing audit (execution-core refactor): the shard lives in
 * thread_local storage and its vector payloads come from the owning
 * thread's allocator, so no other thread ever writes the lines this
 * thread's hot path reads or writes — the only cross-thread touch is
 * the mutex-guarded merge at thread exit / flush. The alignment
 * below additionally keeps the shard header (epoch + vector heads,
 * mutated on every add/observe) off any line the TLS segment might
 * pack another thread-shared object into.
 */
struct alignas(kCacheLineBytes) Shard
{
    /** Registry epoch the buffers belong to; 0 = empty. */
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> counters;
    std::vector<std::vector<std::uint64_t>> histograms;

    void clear()
    {
        epoch = 0;
        counters.clear();
        histograms.clear();
    }
};

struct MetricsRegistry::Impl
{
    std::mutex mutex;

    // Registration metadata. Guarded by mutex for registration; the
    // hot path reads it unlocked under the register-before-spawn
    // contract documented in the header.
    std::vector<std::string> counter_names;
    std::vector<std::string> histogram_names;
    std::vector<std::vector<std::uint64_t>> histogram_bounds;

    // Merged tallies of retired/flushed shards; guarded by mutex.
    std::vector<std::uint64_t> counters;
    std::vector<std::vector<std::uint64_t>> histograms;

    /** Bumped by resetValues() to invalidate live thread shards. */
    std::atomic<std::uint64_t> epoch{1};

    void mergeLocked(Shard& shard)
    {
        if (shard.epoch == epoch.load(std::memory_order_relaxed)) {
            if (counters.size() < shard.counters.size())
                counters.resize(shard.counters.size(), 0);
            for (std::size_t i = 0; i < shard.counters.size(); ++i)
                counters[i] += shard.counters[i];
            if (histograms.size() < shard.histograms.size())
                histograms.resize(shard.histograms.size());
            for (std::size_t i = 0; i < shard.histograms.size();
                 ++i) {
                const auto& src = shard.histograms[i];
                auto& dst = histograms[i];
                if (dst.size() < src.size())
                    dst.resize(src.size(), 0);
                for (std::size_t b = 0; b < src.size(); ++b)
                    dst[b] += src[b];
            }
        }
        shard.clear();
    }
};

MetricsRegistry::Impl&
MetricsRegistry::impl()
{
    // Leaked singleton: thread-local shards merge here from worker
    // destructors, so the state must outlive every thread teardown
    // order the runtime can produce.
    static Impl* instance = new Impl;
    return *instance;
}

/** Merges this thread's shard into the registry when it dies. */
struct TlsShard
{
    Shard shard;

    ~TlsShard()
    {
        MetricsRegistry::Impl& im = metrics().impl();
        std::lock_guard<std::mutex> lock(im.mutex);
        im.mergeLocked(shard);
    }

    static Shard& forThread(MetricsRegistry::Impl& im)
    {
        thread_local TlsShard holder;
        const std::uint64_t epoch =
            im.epoch.load(std::memory_order_relaxed);
        if (holder.shard.epoch != epoch) {
            holder.shard.clear();
            holder.shard.epoch = epoch;
        }
        return holder.shard;
    }
};

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

MetricsSnapshot
MetricsSnapshot::since(const MetricsSnapshot& baseline) const
{
    MetricsSnapshot out = *this;
    for (CounterValue& c : out.counters) {
        if (const CounterValue* b = baseline.findCounter(c.name)) {
            require(c.value >= b->value,
                    "metrics: counter " + c.name +
                        " ran backwards across snapshots");
            c.value -= b->value;
        }
    }
    for (HistogramValue& h : out.histograms) {
        const HistogramValue* b = baseline.findHistogram(h.name);
        if (b == nullptr)
            continue;
        for (std::size_t i = 0;
             i < h.counts.size() && i < b->counts.size(); ++i) {
            require(h.counts[i] >= b->counts[i],
                    "metrics: histogram " + h.name +
                        " ran backwards across snapshots");
            h.counts[i] -= b->counts[i];
        }
    }
    return out;
}

MetricId
MetricsRegistry::counter(const std::string& name)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    for (std::size_t i = 0; i < im.counter_names.size(); ++i) {
        if (im.counter_names[i] == name)
            return packId(kCounter, i);
    }
    im.counter_names.push_back(name);
    return packId(kCounter, im.counter_names.size() - 1);
}

MetricId
MetricsRegistry::histogram(const std::string& name,
                           std::vector<std::uint64_t> bounds)
{
    require(!bounds.empty(),
            "metrics: histogram " + name + " needs bucket bounds");
    require(std::is_sorted(bounds.begin(), bounds.end()) &&
                std::adjacent_find(bounds.begin(), bounds.end()) ==
                    bounds.end(),
            "metrics: histogram " + name +
                " bounds must be strictly increasing");
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    for (std::size_t i = 0; i < im.histogram_names.size(); ++i) {
        if (im.histogram_names[i] == name) {
            require(im.histogram_bounds[i] == bounds,
                    "metrics: histogram " + name +
                        " re-registered with different bounds");
            return packId(kHistogram, i);
        }
    }
    im.histogram_names.push_back(name);
    im.histogram_bounds.push_back(std::move(bounds));
    return packId(kHistogram, im.histogram_names.size() - 1);
}

void
MetricsRegistry::add(MetricId counter_id, std::uint64_t delta)
{
    require(kindOf(counter_id) == kCounter,
            "metrics: add() needs a counter id");
    Shard& shard = TlsShard::forThread(impl());
    const std::size_t idx = indexOf(counter_id);
    if (shard.counters.size() <= idx)
        shard.counters.resize(idx + 1, 0);
    shard.counters[idx] += delta;
}

void
MetricsRegistry::observe(MetricId histogram_id, std::uint64_t value)
{
    require(kindOf(histogram_id) == kHistogram,
            "metrics: observe() needs a histogram id");
    Impl& im = impl();
    Shard& shard = TlsShard::forThread(im);
    const std::size_t idx = indexOf(histogram_id);
    // Safe unlocked under the register-before-spawn contract.
    const std::vector<std::uint64_t>& bounds =
        im.histogram_bounds[idx];
    if (shard.histograms.size() <= idx)
        shard.histograms.resize(idx + 1);
    auto& counts = shard.histograms[idx];
    if (counts.size() < bounds.size() + 1)
        counts.resize(bounds.size() + 1, 0);
    const std::size_t bucket =
        std::lower_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin();
    counts[bucket] += 1;
}

void
MetricsRegistry::flushThisThread()
{
    Impl& im = impl();
    Shard& shard = TlsShard::forThread(im);
    std::lock_guard<std::mutex> lock(im.mutex);
    im.mergeLocked(shard);
}

MetricsSnapshot
MetricsRegistry::snapshot()
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    MetricsSnapshot out;
    out.counters.reserve(im.counter_names.size());
    for (std::size_t i = 0; i < im.counter_names.size(); ++i) {
        out.counters.push_back(
            {im.counter_names[i],
             i < im.counters.size() ? im.counters[i] : 0});
    }
    out.histograms.reserve(im.histogram_names.size());
    for (std::size_t i = 0; i < im.histogram_names.size(); ++i) {
        HistogramValue h;
        h.name = im.histogram_names[i];
        h.bounds = im.histogram_bounds[i];
        h.counts.assign(h.bounds.size() + 1, 0);
        if (i < im.histograms.size()) {
            for (std::size_t b = 0;
                 b < im.histograms[i].size() && b < h.counts.size();
                 ++b)
                h.counts[b] = im.histograms[i][b];
        }
        out.histograms.push_back(std::move(h));
    }
    return out;
}

void
MetricsRegistry::resetValues()
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    im.counters.clear();
    im.histograms.clear();
    // Live shards notice the new epoch on their next access and
    // discard what they were holding.
    im.epoch.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry&
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace gpuecc::obs
