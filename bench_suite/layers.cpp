#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <tuple>

#include "common/codec_mode.hpp"
#include "common/rng.hpp"
#include "ecc/registry.hpp"
#include "faultsim/shard.hpp"
#include "fleet/protocol.hpp"
#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"

namespace gpuecc::bench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Timed results land here so the optimizer cannot drop the work. */
volatile std::uint64_t g_sink = 0;

/** Median wall seconds of `reps` calls of fn. */
template <typename Fn>
double
medianSeconds(int reps, Fn&& fn)
{
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        fn();
        times.push_back(secondsBetween(start, Clock::now()));
    }
    return quantile(std::move(times), 0.5);
}

/** Masks per pattern kept from the replay for the decode bench. */
constexpr std::size_t kPoolMasks = 4096;

/** The runner's task plan, rebuilt from public calls. */
struct Plan
{
    struct Task
    {
        std::size_t cell;
        Shard shard;
    };

    std::vector<std::shared_ptr<EntryScheme>> schemes;
    std::vector<GoldenEntry> goldens;
    std::vector<ErrorPattern> patterns;
    std::uint64_t chunk = 0;
    /** Scheme-major, pattern, shard: the runner's task order. */
    std::vector<Task> tasks;

    std::size_t schemeOf(const Task& t) const
    {
        return t.cell / patterns.size();
    }
};

Plan
buildPlan(const sim::CampaignSpec& spec)
{
    Plan plan;
    plan.patterns = spec.resolvedPatterns();
    // The in-process runner sizes shards for its pool threads, the
    // fleet dispatcher for workers x unit shards.
    const int width =
        spec.fleet_workers > 0
            ? spec.fleet_workers *
                  static_cast<int>(spec.fleet_unit_shards)
            : spec.threads;
    plan.chunk = effectiveShardChunk(spec.samples, spec.chunk, width);
    for (const std::string& id : spec.scheme_ids) {
        plan.schemes.push_back(makeScheme(id));
        plan.goldens.push_back(makeGolden(*plan.schemes.back(), spec.seed));
    }
    for (std::size_t s = 0; s < plan.schemes.size(); ++s) {
        for (std::size_t p = 0; p < plan.patterns.size(); ++p) {
            for (const Shard& shard :
                 planShards(plan.patterns[p], spec.samples, plan.chunk))
                plan.tasks.push_back({s * plan.patterns.size() + p, shard});
        }
    }
    return plan;
}

/** Seconds spent in each stage of the replayed shard kernel. */
struct StageTimes
{
    double sample = 0.0; //!< RNG derivation + sampling, or enumeration
    double inject = 0.0;
    double decode = 0.0;
    double tally = 0.0;
    std::uint64_t entries = 0;

    double total() const { return sample + inject + decode + tally; }
};

/**
 * evaluateShardBatched taken apart: the same public calls in the same
 * order (Rng::forStreams, then sampleErrorMask or
 * forEachErrorMaskInRange into a staging batch, XOR into the golden
 * entry, decodeBatch, tally), with a clock read at every stage
 * boundary of every 256-entry batch and one trace span per stage.
 */
class StageReplay
{
  public:
    StageReplay()
        : arena_(std::make_unique<ShardBatchArena>()),
          origin_(Clock::now()), origin_us_(obs::traceNowUs())
    {
    }

    OutcomeCounts run(const EntryScheme& scheme, const GoldenEntry& golden,
                      std::uint64_t seed, const Shard& shard)
    {
        ShardBatchArena& a = *arena_;
        OutcomeCounts counts;
        std::size_t filled = 0;
        std::vector<Bits288>& keep = pool_[shard.pattern];
        Clock::time_point last = Clock::now();

        auto flush = [&] {
            if (filled == 0)
                return;
            const auto t1 = Clock::now();
            for (std::size_t i = 0; i < filled; ++i)
                a.received[i] = golden.entry ^ a.masks[i];
            const auto t2 = Clock::now();
            scheme.decodeBatch(a.received.data(), a.decodes.data(),
                               filled);
            const auto t3 = Clock::now();
            for (std::size_t i = 0; i < filled; ++i) {
                const EntryDecode& result = a.decodes[i];
                ++counts.trials;
                if (result.status == EntryDecode::Status::due) {
                    ++counts.due;
                } else if (result.data == golden.data) {
                    ++counts.dce;
                } else {
                    ++counts.sdc;
                }
            }
            const auto t4 = Clock::now();
            times.sample += secondsBetween(last, t1);
            times.inject += secondsBetween(t1, t2);
            times.decode += secondsBetween(t2, t3);
            times.tally += secondsBetween(t3, t4);
            times.entries += filled;
            span(kSample, last, t1);
            span(kInject, t1, t2);
            span(kDecode, t2, t3);
            span(kTally, t3, t4);
            if (keep.size() < kPoolMasks) {
                const std::size_t take =
                    std::min(filled, kPoolMasks - keep.size());
                keep.insert(keep.end(), a.masks.begin(),
                            a.masks.begin() + take);
            }
            filled = 0;
            // Bookkeeping above is the replay's, not the kernel's.
            last = Clock::now();
        };
        auto stage = [&](const Bits288& mask) {
            a.masks[filled++] = mask;
            if (filled == kShardBatchEntries)
                flush();
        };

        if (patternIsEnumerable(shard.pattern)) {
            counts.exhaustive = true;
            forEachErrorMaskInRange(shard.pattern, shard.begin, shard.end,
                                    stage);
        } else {
            const std::uint64_t blocks =
                (shard.end - shard.begin + kStreamBlockSamples - 1) /
                kStreamBlockSamples;
            if (a.block_rngs.size() < blocks)
                a.block_rngs.resize(blocks);
            Rng::forStreams(seed, shard.stream, blocks,
                            a.block_rngs.data());
            for (std::uint64_t blk = 0; blk < blocks; ++blk) {
                Rng& rng = a.block_rngs[blk];
                const std::uint64_t b =
                    shard.begin + blk * kStreamBlockSamples;
                const std::uint64_t stop =
                    std::min(shard.end, b + kStreamBlockSamples);
                for (std::uint64_t i = b; i < stop; ++i)
                    stage(sampleErrorMask(shard.pattern, rng));
            }
        }
        flush();
        return counts;
    }

    /** The replayed masks, up to kPoolMasks per pattern. */
    std::vector<Bits288> masks() const
    {
        std::vector<Bits288> out;
        for (const auto& [pattern, masks] : pool_)
            out.insert(out.end(), masks.begin(), masks.end());
        return out;
    }

    StageTimes times;

  private:
    inline static const std::string kSample = "sample";
    inline static const std::string kInject = "inject";
    inline static const std::string kDecode = "decode";
    inline static const std::string kTally = "tally";

    void span(const std::string& name, Clock::time_point a,
              Clock::time_point b) const
    {
        if (!obs::traceEnabled())
            return;
        const auto us = [](Clock::duration d) {
            return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(d)
                    .count());
        };
        obs::emitSpan(name, "stage", origin_us_ + us(a - origin_), us(b - a));
    }

    std::unique_ptr<ShardBatchArena> arena_;
    std::map<ErrorPattern, std::vector<Bits288>> pool_;
    Clock::time_point origin_;
    std::uint64_t origin_us_;
};

bool
sameEntries(const std::vector<sim::CheckpointEntry>& a,
            const std::vector<sim::CheckpointEntry>& b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const sim::CheckpointEntry& x,
                         const sim::CheckpointEntry& y) {
                          return x.task == y.task &&
                                 sameCounts(x.counts, y.counts);
                      });
}

std::uint64_t
counter(const obs::MetricsSnapshot& metrics, const char* name)
{
    const obs::CounterValue* c = metrics.findCounter(name);
    return c != nullptr ? c->value : 0;
}

/** Metric-name form of a scheme id ("ssc-dsd+" -> "ssc-dsd-plus"). */
std::string
metricId(std::string id)
{
    std::string out;
    for (char c : id)
        out += c == '+' ? std::string("-plus") : std::string(1, c);
    return out;
}

} // namespace

double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

std::vector<Metric>
runTraced(const Workload& workload, const Reference& reference,
          const std::string& workdir, const std::string& trace_path,
          RunLedger& ledger)
{
    const sim::CampaignSpec& spec = workload.spec;

    // Warm-up, then one untraced rep: the per-layer pool and fleet
    // counters and the tracing-overhead baseline.
    Result<CampaignRun> first =
        runFirstCampaign(workload, reference, ledger);
    if (!first.ok())
        return {};
    const sim::CampaignResult& baseline = first.value().result;
    Result<CampaignRun> untraced =
        runCampaign(workload, workdir + "/untraced");
    if (!untraced.ok()) {
        ledger.fail(workload.name + ": " + untraced.status().toString());
        return {};
    }
    const CampaignRun& plain = untraced.value();
    ledger.record(workload, reference, plain.result, &baseline);

    const Plan plan = buildPlan(spec);
    std::vector<OutcomeCounts> task_counts(plan.tasks.size());
    std::vector<double> shard_s(plan.tasks.size());
    std::vector<std::size_t> replayed;
    double traced_wall = 0.0;
    std::vector<Metric> out;
    auto add = [&](const std::string& name, double value,
                   const std::string& unit) {
        out.push_back({name, value, unit});
    };

    obs::startTrace(trace_path);
    StageReplay replay; // after startTrace: it anchors the trace clock
    auto workload_span = std::make_unique<obs::TraceSpan>(
        "workload " + workload.name, "bench");
    {
        obs::TraceSpan rep_span("rep", "bench");
        Result<CampaignRun> traced =
            runCampaign(workload, workdir + "/traced");
        if (!traced.ok()) {
            ledger.fail(workload.name + ": " +
                        traced.status().toString());
        } else {
            traced_wall = traced.value().wall_s;
            ledger.record(workload, reference, traced.value().result,
                          &baseline);
        }
    }

    // The shard kernel on every task of the plan, single-threaded;
    // up to 4 evenly spaced shards per cell are also replayed stage
    // by stage right after their kernel call, so load drift on the
    // host cannot skew stage time against kernel time.
    std::vector<char> pick(plan.tasks.size(), 0);
    for (std::size_t first_task = 0; first_task < plan.tasks.size();) {
        std::size_t end = first_task;
        while (end < plan.tasks.size() &&
               plan.tasks[end].cell == plan.tasks[first_task].cell)
            ++end;
        const std::size_t n = end - first_task;
        const std::size_t picks = std::min<std::size_t>(n, 4);
        for (std::size_t k = 0; k < picks; ++k)
            pick[first_task +
                 (picks == 1 ? 0 : k * (n - 1) / (picks - 1))] = 1;
        first_task = end;
    }
    {
        obs::TraceSpan shards_span("shards", "bench");
        auto arena = std::make_unique<ShardBatchArena>();
        for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
            const Plan::Task& t = plan.tasks[i];
            const std::size_t s = plan.schemeOf(t);
            {
                obs::TraceSpan span("evaluateShardBatched", "faultsim");
                const auto start = Clock::now();
                task_counts[i] = evaluateShardBatched(
                    *plan.schemes[s], plan.goldens[s], spec.seed,
                    t.shard, *arena);
                shard_s[i] = secondsBetween(start, Clock::now());
            }
            if (pick[i] == 0)
                continue;
            obs::TraceSpan span("replay", "bench");
            const OutcomeCounts counts = replay.run(
                *plan.schemes[s], plan.goldens[s], spec.seed, t.shard);
            if (!sameCounts(counts, task_counts[i])) {
                ledger.fail(workload.name + ": stage replay of task " +
                            std::to_string(i) +
                            " differs from evaluateShardBatched");
            }
            replayed.push_back(i);
        }
        std::vector<OutcomeCounts> cells(plan.schemes.size() *
                                         plan.patterns.size());
        for (std::size_t i = 0; i < plan.tasks.size(); ++i)
            cells[plan.tasks[i].cell].merge(task_counts[i]);
        bool merged = cells.size() == baseline.cells.size();
        for (std::size_t c = 0; merged && c < cells.size(); ++c)
            merged = sameCounts(cells[c], baseline.cells[c].counts);
        if (!merged) {
            ledger.fail(workload.name + ": per-shard kernel tallies "
                                        "don't merge to the campaign's");
        }
    }

    // Layer rates the stage shares are read against.
    {
        obs::TraceSpan micro_span("microbench", "bench");
        Rng rng(spec.seed);
        constexpr int kDraws = 1 << 22;
        const double rng_s = medianSeconds(5, [&] {
            std::uint64_t x = 0;
            for (int i = 0; i < kDraws; ++i)
                x ^= rng.next64();
            g_sink = g_sink + x;
        });
        add("common.rng.next64_per_s", kDraws / rng_s, "1/s");
        for (auto [name, pattern, masks] :
             {std::tuple{"faultsim.sample.beat_per_s", ErrorPattern::oneBeat,
                         1 << 15},
              std::tuple{"faultsim.sample.entry_per_s",
                         ErrorPattern::wholeEntry, 1 << 13}}) {
            const double t = medianSeconds(5, [&] {
                std::uint64_t x = 0;
                for (int i = 0; i < masks; ++i)
                    x ^= sampleErrorMask(pattern, rng).word(0);
                g_sink = g_sink + x;
            });
            add(name, masks / t, "masks/s");
        }
        std::uint64_t enumerated = 0;
        const double enum_s = medianSeconds(5, [&] {
            std::uint64_t x = 0;
            enumerated = forEachErrorMaskInRange(
                ErrorPattern::threeBits, 0, kShardOuterSlots,
                [&](const Bits288& m) { x ^= m.word(0); });
            g_sink = g_sink + x;
        });
        add("faultsim.enumerate.per_s",
            static_cast<double>(enumerated) / enum_s, "masks/s");
    }

    add("faultsim.shard.ms_p50", 1e3 * quantile(shard_s, 0.5), "ms");
    add("faultsim.shard.ms_p99", 1e3 * quantile(shard_s, 0.99), "ms");
    add("faultsim.shard.count", static_cast<double>(shard_s.size()),
        "count");

    // Decode on the workload's own masks: the replay's aggregate over
    // the workload's schemes, then every paper scheme on one mask set.
    const StageTimes& st = replay.times;
    add("ecc.decode.per_s", static_cast<double>(st.entries) / st.decode,
        "entries/s");
    const std::vector<Bits288> masks = replay.masks();
    for (const auto& scheme : paperSchemes()) {
        const GoldenEntry golden = makeGolden(*scheme, spec.seed);
        std::vector<Bits288> received(masks.size());
        for (std::size_t i = 0; i < masks.size(); ++i)
            received[i] = golden.entry ^ masks[i];
        std::vector<EntryDecode> decodes(masks.size());
        const double t = medianSeconds(5, [&] {
            obs::TraceSpan span("decodeBatch " + scheme->id(), "ecc");
            for (std::size_t off = 0; off < received.size();
                 off += kShardBatchEntries) {
                scheme->decodeBatch(
                    received.data() + off, decodes.data() + off,
                    std::min(kShardBatchEntries, received.size() - off));
            }
            g_sink = g_sink + static_cast<std::uint64_t>(decodes[0].status);
        });
        add("ecc.decode.per_s." + metricId(scheme->id()),
            static_cast<double>(masks.size()) / t, "entries/s");
    }
    std::uint64_t trials = 0, due = 0, sdc = 0;
    for (const sim::CampaignCell& cell : plain.result.cells) {
        trials += cell.counts.trials;
        due += cell.counts.due;
        sdc += cell.counts.sdc;
    }
    add("ecc.decode.due_frac", static_cast<double>(due) / trials, "ratio");
    add("ecc.decode.sdc_frac", static_cast<double>(sdc) / trials, "ratio");

    double kernel_s = 0.0;
    for (std::size_t i : replayed)
        kernel_s += shard_s[i];
    add("stage.sample_share", st.sample / st.total(), "ratio");
    add("stage.inject_share", st.inject / st.total(), "ratio");
    add("stage.decode_share", st.decode / st.total(), "ratio");
    add("stage.tally_share", st.tally / st.total(), "ratio");
    add("stage.coverage", st.total() / kernel_s, "ratio");

    const sim::CampaignResult& r = plain.result;
    add("sim.pool.utilization", r.pool.utilization(), "ratio");
    add("sim.pool.steals", static_cast<double>(r.pool.steals), "count");
    add("sim.plan.tasks", static_cast<double>(r.shards), "count");

    // Checkpoint store on the workload's complete plan; for the fleet
    // workload that is exactly the checkpoint its rep left on disk.
    sim::CampaignCheckpoint ckpt;
    ckpt.fingerprint = sim::campaignFingerprint(
        spec.scheme_ids, plan.patterns, spec.samples, spec.seed, plan.chunk,
        codecBackendName(), plan.tasks.size());
    for (std::size_t i = 0; i < plan.tasks.size(); ++i)
        ckpt.done.push_back({i, task_counts[i]});
    if (workload.checkpoint) {
        Result<sim::CampaignCheckpoint> written =
            sim::loadCheckpoint(plain.checkpoint_path);
        if (!written.ok() ||
            written.value().fingerprint != ckpt.fingerprint ||
            !sameEntries(written.value().done, ckpt.done)) {
            ledger.fail(workload.name + ": the rep's final checkpoint "
                                        "differs from the kernel's tallies");
        }
    }
    const std::string ckpt_path = workdir + "/layers-checkpoint.json";
    const double save_s = medianSeconds(3, [&] {
        obs::TraceSpan span("saveCheckpoint", "sim");
        if (Status s = sim::saveCheckpoint(ckpt_path, ckpt); !s.ok())
            ledger.fail(workload.name + ": " + s.toString());
    });
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(ckpt_path, ec);
    const double load_s = medianSeconds(3, [&] {
        obs::TraceSpan span("loadCheckpoint", "sim");
        Result<sim::CampaignCheckpoint> loaded =
            sim::loadCheckpoint(ckpt_path);
        if (!loaded.ok() || !sameEntries(loaded.value().done, ckpt.done))
            ledger.fail(workload.name + ": checkpoint round trip failed");
    });
    add("sim.checkpoint.flushes",
        static_cast<double>(counter(r.metrics, "campaign.checkpoint_flushes") +
                            counter(r.metrics, "fleet.checkpoint_flushes")),
        "count");
    add("sim.checkpoint.bytes", ec ? 0.0 : static_cast<double>(bytes),
        "bytes");
    add("sim.checkpoint.save_ms", 1e3 * save_s, "ms");
    add("sim.checkpoint.load_ms", 1e3 * load_s, "ms");

    add("fleet.units", static_cast<double>(r.fleet.units), "count");
    add("fleet.requeues", static_cast<double>(r.fleet.requeues), "count");
    sim::fleet::WorkerMessage message;
    message.kind = sim::fleet::WorkerMessage::Kind::result;
    message.busy_us = static_cast<std::uint64_t>(1e6 * shard_s.front());
    message.checkpoint.fingerprint = ckpt.fingerprint;
    message.checkpoint.done = {ckpt.done.front()};
    constexpr int kWireCalls = 2000;
    std::string line;
    const double encode_s = medianSeconds(5, [&] {
        obs::TraceSpan span("encodeResultLine", "fleet");
        for (int k = 0; k < kWireCalls; ++k)
            line = sim::fleet::encodeResultLine(message);
    });
    std::string body = line;
    if (!body.empty() && body.back() == '\n')
        body.pop_back();
    bool decoded_ok = true;
    const double decode_s = medianSeconds(5, [&] {
        obs::TraceSpan span("decodeWorkerLine", "fleet");
        for (int k = 0; k < kWireCalls; ++k) {
            Result<sim::fleet::WorkerMessage> m =
                sim::fleet::decodeWorkerLine(body);
            decoded_ok = decoded_ok && m.ok() &&
                         sameEntries(m.value().checkpoint.done,
                                     message.checkpoint.done);
        }
    });
    if (!decoded_ok)
        ledger.fail(workload.name + ": result line round trip failed");
    add("fleet.wire.result_bytes", static_cast<double>(line.size()), "bytes");
    add("fleet.wire.encode_us", 1e6 * encode_s / kWireCalls, "us");
    add("fleet.wire.decode_us", 1e6 * decode_s / kWireCalls, "us");
    double busy = 0.0;
    for (const obs::FleetWorkerRecord& w : r.fleet.worker_records)
        busy += w.busy_seconds;
    const int workers = r.fleet.workers;
    add("fleet.worker_busy_frac",
        workers > 0 ? busy / (workers * r.seconds) : 0.0, "ratio");
    add("fleet.parent_gap_s", workers > 0 ? r.seconds - busy / workers : 0.0,
        "s");

    add("obs.trace_overhead_frac",
        traced_wall > 0.0 ? traced_wall / plain.wall_s - 1.0 : 0.0, "ratio");

    workload_span.reset();
    if (Status s = obs::stopTraceAndWrite(); !s.ok())
        ledger.fail(workload.name + ": trace: " + s.toString());
    return out;
}

} // namespace gpuecc::bench
