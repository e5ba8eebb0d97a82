#include "obs/progress.hpp"

#include <cstdio>
#include <utility>

#include <unistd.h>

#include "common/log.hpp"

namespace gpuecc::obs {

namespace {

/** Pre-line hook: erase the status line so a log line lands clean. */
void
clearProgressLine()
{
    std::fputs("\r\x1b[K", stderr);
}

std::string
formatRate(double per_second)
{
    char buf[32];
    if (per_second >= 1e9)
        std::snprintf(buf, sizeof buf, "%.2fG", per_second * 1e-9);
    else if (per_second >= 1e6)
        std::snprintf(buf, sizeof buf, "%.2fM", per_second * 1e-6);
    else if (per_second >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1fk", per_second * 1e-3);
    else
        std::snprintf(buf, sizeof buf, "%.0f", per_second);
    return buf;
}

std::string
formatEta(double seconds)
{
    if (seconds < 0.0)
        return "--";
    const auto total = static_cast<std::uint64_t>(seconds + 0.5);
    char buf[48];
    if (total >= 3600) {
        std::snprintf(buf, sizeof buf, "%lluh%02llum",
                      static_cast<unsigned long long>(total / 3600),
                      static_cast<unsigned long long>(total / 60 %
                                                      60));
    } else if (total >= 60) {
        std::snprintf(buf, sizeof buf, "%llum%02llus",
                      static_cast<unsigned long long>(total / 60),
                      static_cast<unsigned long long>(total % 60));
    } else {
        std::snprintf(buf, sizeof buf, "%llus",
                      static_cast<unsigned long long>(total));
    }
    return buf;
}

} // namespace

std::string
formatProgressLine(const ProgressSample& sample)
{
    double fraction =
        sample.totals.shards > 0
            ? static_cast<double>(sample.shards_done) /
                  static_cast<double>(sample.totals.shards)
            : 0.0;
    if (fraction > 1.0)
        fraction = 1.0;
    char head[32];
    std::snprintf(head, sizeof head, "[%5.1f%%]", fraction * 100.0);
    std::string line = head;
    line += " shards ";
    line += std::to_string(sample.shards_done);
    line += "/";
    line += std::to_string(sample.totals.shards);
    line += "  schemes ";
    line += std::to_string(sample.schemes_done);
    line += "/";
    line += std::to_string(sample.totals.schemes);
    line += "  ";
    line += formatRate(sample.trials_per_second);
    line += " trials/s  eta ";
    line += formatEta(sample.eta_seconds);
    return line;
}

ProgressReporter::ProgressReporter(ProgressMode mode, Sampler sampler)
    : sampler_(std::move(sampler))
{
    switch (mode) {
      case ProgressMode::off:
        return;
      case ProgressMode::autoTty:
        if (::isatty(STDERR_FILENO) == 0)
            return;
        break;
      case ProgressMode::on:
        break;
    }
    enabled_ = true;
    start_ = std::chrono::steady_clock::now();
    setLogPreLineHook(&clearProgressLine);
    thread_ = std::thread([this] { renderLoop(); });
}

ProgressReporter::~ProgressReporter()
{
    stop();
}

void
ProgressReporter::renderLoop()
{
    std::unique_lock<std::mutex> lock(stop_mutex_);
    for (;;) {
        stop_cv_.wait_for(lock, std::chrono::milliseconds(500),
                          [this] { return stopping_; });
        if (stopping_)
            return;
        ProgressSample sample = sampler_();
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        if (elapsed > 0.0 && sample.trials_done > 0) {
            sample.trials_per_second =
                static_cast<double>(sample.trials_done) / elapsed;
        }
        // ETA extrapolates from shards, the unit whose total is exact.
        if (elapsed > 0.0 && sample.shards_done > 0) {
            sample.eta_seconds =
                sample.totals.shards > sample.shards_done
                    ? static_cast<double>(sample.totals.shards -
                                          sample.shards_done) *
                          elapsed /
                          static_cast<double>(sample.shards_done)
                    : 0.0;
        }
        const std::string line = formatProgressLine(sample);
        std::lock_guard<std::mutex> log_lock(logMutex());
        std::fputs("\r", stderr);
        std::fputs(line.c_str(), stderr);
        std::fputs("\x1b[K", stderr);
        std::fflush(stderr);
    }
}

void
ProgressReporter::stop()
{
    if (!enabled_)
        return;
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        stopping_ = true;
    }
    stop_cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    setLogPreLineHook(nullptr);
    {
        std::lock_guard<std::mutex> log_lock(logMutex());
        clearProgressLine();
        std::fflush(stderr);
    }
    enabled_ = false;
}

} // namespace gpuecc::obs
