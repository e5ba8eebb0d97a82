/**
 * @file
 * The campaign benchmark's traced run: per-layer numbers.
 *
 * A separate invocation from the end-to-end run, so tracing never
 * colours an end-to-end number. It times calls into each layer's
 * public functions from the benchmark's own code — the pool and fleet
 * through CampaignRunner, the shard kernel per shard, a stage-by-stage
 * replay of that kernel (sample or enumerate, inject, decode, tally),
 * decode on the workload's own masks, the fleet wire codec and the
 * checkpoint store — and records spans for all of it through
 * obs::TraceSpan, written to one Chrome trace file at the end.
 */

#ifndef GPUECC_BENCH_SUITE_LAYERS_HPP
#define GPUECC_BENCH_SUITE_LAYERS_HPP

#include <string>
#include <vector>

#include "workloads.hpp"

namespace gpuecc::bench {

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Linear-interpolated quantile q in [0, 1] of a non-empty sample. */
double quantile(std::vector<double> values, double q);

/**
 * Run the workload traced and return every per-layer metric. The
 * campaigns it runs are checked into `ledger`; scratch files go under
 * `workdir` and the trace to `trace_path`.
 */
std::vector<Metric> runTraced(const Workload& workload,
                              const Reference& reference,
                              const std::string& workdir,
                              const std::string& trace_path,
                              RunLedger& ledger);

} // namespace gpuecc::bench

#endif // GPUECC_BENCH_SUITE_LAYERS_HPP
