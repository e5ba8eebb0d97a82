/**
 * @file
 * Run manifests: the provenance block embedded in every report.
 *
 * A report is only comparable to another when both say what produced
 * them — build type, compiler, hardware, thread count, codec backend,
 * chaos configuration. RunManifest gathers those facts; PoolTelemetry
 * and SchemeTiming carry the measured side (where the time went).
 * Serialization to JSON lives in sim/report (obs depends only on
 * common).
 */

#ifndef GPUECC_OBS_MANIFEST_HPP
#define GPUECC_OBS_MANIFEST_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gpuecc::obs {

/** Compile- and host-environment facts, captured once per process. */
struct BuildInfo
{
    std::string build_type; //!< CMAKE_BUILD_TYPE baked in at compile
    std::string compiler;   //!< e.g. "g++ 13.2.0"
    std::string platform;   //!< e.g. "Linux 6.8.0 x86_64"
    int hardware_threads = 0;
};

/** The current process's BuildInfo. */
BuildInfo buildInfo();

/** Thread-pool utilization over one campaign (from ThreadPool). */
struct PoolTelemetry
{
    int threads = 0;
    std::uint64_t tasks_executed = 0;
    std::uint64_t steals = 0;
    /** Summed per-worker time inside task bodies. */
    double busy_seconds = 0.0;
    /** Wall time the pool spent inside parallelFor. */
    double wall_seconds = 0.0;
    /** Per-worker busy time (index = worker id; sums to busy). */
    std::vector<double> worker_busy_seconds;

    /** busy / (wall * threads), clamped to [0, 1]. */
    double utilization() const;

    /** 1 - utilization(). */
    double idleFraction() const;

    /** One worker's busy / wall, clamped to [0, 1]. */
    double workerUtilization(std::size_t worker) const;
};

/** Where one scheme's evaluation time went. */
struct SchemeTiming
{
    std::string scheme_id;
    /** First shard start to last shard end (overlaps other schemes). */
    double wall_seconds = 0.0;
    /** Summed in-shard compute time across workers. */
    double cpu_seconds = 0.0;
    std::uint64_t shards = 0;
    std::uint64_t trials = 0;
};

/**
 * One fleet host's row in the dispatcher's ledger: a forked local
 * worker or the in-process fallback. The credit fields count settled
 * units only, once each; timing.fleet.worker_records and the
 * fleet.host.<label>.* series both render from these rows.
 */
struct FleetWorkerRecord
{
    int worker = 0;         //!< dense worker index (-1: the fallback)
    /** "local-<worker>", or "parent" for the fallback. */
    std::string label;
    std::int64_t pid = 0;   //!< OS process id (provenance only)
    std::uint64_t units = 0;  //!< work units completed
    std::uint64_t shards = 0; //!< shard tasks inside those units
    std::uint64_t trials = 0;
    /** In-worker evaluation time (its own clock, summed per unit). */
    double busy_seconds = 0.0;
    /** Counter deltas the host shipped, accumulated by name. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /** Exit code (128 + signal for a signalled death). */
    int exit_code = 0;
    /** Died, broke protocol or never started before the queue
        drained. */
    bool lost = false;
};

/** Fleet-level execution telemetry (workers == 0: in-process run). */
struct FleetTelemetry
{
    int workers = 0;
    std::uint64_t units = 0;        //!< work units in the plan
    std::uint64_t unit_shards = 0;  //!< shard tasks per unit (max)
    /** Shard tasks the parent evaluated itself (all workers lost). */
    std::uint64_t parent_fallback_shards = 0;
    /** @name Fault counters (see kFleetFaultCounters) */
    ///@{
    /** Units re-queued after a worker died mid-unit. */
    std::uint64_t requeues = 0;
    /** Units retired at the requeue-attempt cap (cell failed). */
    std::uint64_t units_poisoned = 0;
    /** Late/duplicated result lines discarded by idempotent merge. */
    std::uint64_t duplicate_results = 0;
    std::uint64_t workers_lost = 0;
    /** Hosts retired by the in-flight unit deadline. */
    std::uint64_t worker_timeouts = 0;
    /** Hosts retired for silence (missed heartbeats), or for still
        running a heartbeat budget after their shutdown line. */
    std::uint64_t heartbeat_expiries = 0;
    ///@}
    /** One row per forked worker, in fork order. */
    std::vector<FleetWorkerRecord> worker_records;
};

/** One fault counter: its report key, its metric name, its field. */
struct FleetFaultCounter
{
    const char* key;    //!< timing.fleet key
    const char* metric; //!< timing.counters name
    std::uint64_t FleetTelemetry::*field;
};

/**
 * The fleet's fault counters, in report order — the one table both
 * views of them (timing.fleet, timing.counters) render from.
 */
inline constexpr FleetFaultCounter kFleetFaultCounters[] = {
    {"requeues", "fleet.units_requeued", &FleetTelemetry::requeues},
    {"units_poisoned", "fleet.units_poisoned",
     &FleetTelemetry::units_poisoned},
    {"duplicate_results", "fleet.duplicate_results",
     &FleetTelemetry::duplicate_results},
    {"workers_lost", "fleet.workers_lost", &FleetTelemetry::workers_lost},
    {"worker_timeouts", "fleet.worker_timeouts",
     &FleetTelemetry::worker_timeouts},
    {"heartbeat_expiries", "fleet.heartbeat_expiries",
     &FleetTelemetry::heartbeat_expiries},
};

/** Provenance block embedded in reports and checkpoints. */
struct RunManifest
{
    std::string tool; //!< producing binary, e.g. "bench_tab2"
    BuildInfo build;
    int threads = 0;
    std::string codec_backend;
    std::string chaos; //!< GPUECC_CHAOS env text, "" when unset
    std::uint64_t samples = 0;
    std::uint64_t seed = 0;
    std::uint64_t chunk = 0;
    /** Fleet worker processes (0 = in-process execution). */
    int fleet_workers = 0;
    std::vector<std::string> schemes;
    bool traced = false;
    /** sampleErrorMask stream version (kSamplerVersion); 0 for a
        tool that samples no error masks. */
    int sampler = 0;
};

/** The GPUECC_CHAOS environment text ("" when unset). */
std::string chaosEnvText();

/** Short name of the running binary (e.g. "bench_tab2"). */
std::string toolName();

/** CPU seconds this process has consumed (user + system). */
double processCpuSeconds();

/**
 * CPU seconds consumed by reaped child processes (user + system) —
 * how a fleet campaign's worker compute shows up in the parent's
 * timing section. 0 where the platform can't report it.
 */
double processChildrenCpuSeconds();

} // namespace gpuecc::obs

#endif // GPUECC_OBS_MANIFEST_HPP
