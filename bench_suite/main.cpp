/**
 * @file
 * bench_suite: the campaign benchmark (see README.md).
 *
 *   bench_suite --workload W [--seed N] [--seconds S] [--trace 0|1]
 *
 * Runs one workload's campaign in this process and prints its metrics.
 * --trace 0 (default) reports the end-to-end metrics with tracing off:
 * one untimed warm-up (for the fleet workload, the in-process
 * verification run), then timed reps for at least --seconds. --trace 1
 * is the separate traced run: it reports the per-layer metrics and
 * writes W.trace.json under --workdir. Every campaign is checked; the
 * last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics, and the exit code is 1 when a check
 * failed.
 */

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "common/cli.hpp"
#include "layers.hpp"
#include "obs/manifest.hpp"
#include "sim/report.hpp"
#include "workloads.hpp"

using namespace gpuecc;
using namespace gpuecc::bench;

namespace {

/** Timed reps at least, however short --seconds is. */
constexpr int kMinReps = 3;

/**
 * This process's peak resident set in MiB. Read from VmHWM rather than
 * getrusage: ru_maxrss survives execve, so it would report the peak of
 * whatever launched the benchmark (run.py's Python, say) when larger.
 */
double
selfPeakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

/** Peak resident set of the largest reaped child (fleet workers). */
double
childrenPeakRssMiB()
{
    struct rusage usage = {};
    if (::getrusage(RUSAGE_CHILDREN, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
cpuSeconds()
{
    return obs::processCpuSeconds() + obs::processChildrenCpuSeconds();
}

/**
 * Warm-up, then timed reps until `seconds` have passed (or exactly
 * `reps` when positive); every rep must tally like the warm-up.
 *
 * Throughput and CPU cost are the best rep's. On a shared host,
 * contention from other tenants only ever slows a rep, and it comes in
 * spells of tens of seconds: the fastest rep is the steadiest estimate
 * of what the code costs, where the median moves with the neighbours.
 * Quartiles over all reps are printed beside it.
 */
std::vector<Metric>
runEndToEnd(const Workload& workload, const Reference& reference,
            const std::string& dir, double seconds, int reps,
            RunLedger& ledger)
{
    Result<CampaignRun> first =
        runFirstCampaign(workload, reference, ledger);
    if (!first.ok())
        return {};

    std::vector<double> rates;
    std::vector<double> cpu_per_mtrial;
    std::vector<double> setups;
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0;; ++rep) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        if (reps > 0 ? rep >= reps
                     : rep >= kMinReps && elapsed >= seconds)
            break;
        const std::string rep_dir = dir + "/rep" + std::to_string(rep);
        const double cpu_start = cpuSeconds();
        Result<CampaignRun> run = runCampaign(workload, rep_dir);
        const double cpu_s = cpuSeconds() - cpu_start;
        std::error_code ec;
        std::filesystem::remove_all(rep_dir, ec);
        if (!run.ok()) {
            ledger.fail(workload.name + ": " + run.status().toString());
            return {};
        }
        const sim::CampaignResult& r = run.value().result;
        ledger.record(workload, reference, r, &first.value().result);
        rates.push_back(r.trialsPerSecond());
        cpu_per_mtrial.push_back(
            cpu_s / (static_cast<double>(r.totalTrials()) * 1e-6));
        setups.push_back(run.value().setupSeconds());
        std::printf("rep %d: %.3f s wall, %.3f s evaluating, %.4g "
                    "trials/s, %.4g CPU s/Mtrial, %.4f s set-up\n",
                    rep + 1, run.value().wall_s, r.seconds, rates.back(),
                    cpu_per_mtrial.back(), setups.back());
    }

    for (auto [name, values] :
         {std::pair{"trials_per_s", &rates},
          std::pair{"cpu_s_per_mtrial", &cpu_per_mtrial},
          std::pair{"setup_s", &setups}}) {
        std::printf("%s over %zu reps: q1 %.6g, median %.6g, q3 %.6g\n",
                    name, values->size(), quantile(*values, 0.25),
                    quantile(*values, 0.5), quantile(*values, 0.75));
    }
    return {
        {"trials_per_s", quantile(rates, 1.0), "trials/s"},
        {"cpu_s_per_mtrial", quantile(cpu_per_mtrial, 0.0), "s/Mtrial"},
        {"setup_s", quantile(setups, 0.5), "s"},
        {"peak_rss_mb", selfPeakRssMiB() + childrenPeakRssMiB(), "MiB"},
    };
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("workload", "",
                "tab2-exhaustive, tab2-sampled, entry-tail or fleet-ckpt");
    cli.addFlag("seed", "0x5EED", "campaign seed");
    cli.addFlag("seconds", "12",
                "time the reps for at least this long (at least 3 reps)");
    cli.addFlag("reps", "0", "exact number of timed reps (0: use --seconds)");
    cli.addFlag("trace", "0",
                "1: the traced run, reporting the per-layer metrics");
    cli.addFlag("scale", "1", "shrink the workload by this factor (smoke)");
    cli.addFlag("workdir", ".bench_build/run",
                "directory for checkpoints and the trace file");
    cli.addFlag("reference", BENCH_SUITE_DIR "/reference.json",
                "frozen reference counts");
    cli.parse(argc, argv, "Campaign benchmark: one workload per process.");

    Result<Reference> reference = loadReference(cli.getString("reference"));
    if (!reference.ok()) {
        std::fprintf(stderr, "bench_suite: reference: %s\n",
                     reference.status().toString().c_str());
        return 2;
    }
    const std::string name = cli.getString("workload");
    Result<Workload> workload = makeWorkload(
        name, static_cast<std::uint64_t>(cli.getInt("seed")),
        static_cast<std::uint64_t>(cli.getInt("scale")));
    if (!workload.ok()) {
        std::fprintf(stderr, "bench_suite: %s\n",
                     workload.status().toString().c_str());
        return 2;
    }
    const std::string workdir = cli.getString("workdir");
    const std::string dir =
        workdir + "/" + name + "-" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "bench_suite: cannot create %s: %s\n",
                     dir.c_str(), ec.message().c_str());
        return 2;
    }

    RunLedger ledger;
    const std::vector<Metric> metrics =
        cli.getInt("trace") != 0
            ? runTraced(workload.value(), reference.value(), dir,
                        workdir + "/" + name + ".trace.json", ledger)
            : runEndToEnd(workload.value(), reference.value(), dir,
                          cli.getDouble("seconds"),
                          static_cast<int>(cli.getInt("reps")), ledger);
    std::filesystem::remove_all(dir, ec);

    for (const Metric& m : metrics) {
        std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (!std::isfinite(m.value))
            ledger.fail(name + ": metric " + m.name + " is not finite");
    }
    for (const std::string& f : ledger.failures)
        std::fprintf(stderr, "bench_suite: check failed: %s\n", f.c_str());
    const bool correct = ledger.failures.empty() && !metrics.empty();

    sim::JsonWriter w;
    w.beginObject();
    w.kv("correct", correct);
    w.kv("attempted", ledger.attempted);
    w.kv("failed", ledger.failed);
    w.key("metrics").beginObject();
    for (const Metric& m : metrics) {
        w.key(m.name).beginObject();
        w.kv("value", std::isfinite(m.value) ? m.value : 0.0);
        w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return correct ? 0 : 1;
}
