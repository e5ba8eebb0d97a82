/**
 * @file
 * Live campaign progress on one rewritten stderr line.
 *
 * The reporter owns a background render thread that reads the
 * campaign's own counts through a sampler every ~500 ms and redraws a
 * single status line (percent done, shards, schemes, trials/s, ETA)
 * in place. It keeps no counts of its own, so the shard hot path
 * never touches it and progress reporting cannot perturb campaign
 * determinism. The reporter registers a log pre-line hook so any
 * warn()/inform() clears the status line before printing, then the
 * next render repaints it.
 */

#ifndef GPUECC_OBS_PROGRESS_HPP
#define GPUECC_OBS_PROGRESS_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace gpuecc::obs {

/** When the live progress line is shown. */
enum class ProgressMode
{
    autoTty, //!< on iff stderr is a terminal
    on,
    off,
};

/**
 * The denominator side of the progress line. Shards are the unit of
 * completion (and of the percent/ETA): the planner knows the exact
 * shard count up front, whereas the trial count of an enumerable
 * pattern's shard is only discovered as the mask filter runs.
 */
struct ProgressTotals
{
    std::uint64_t shards = 0;
    std::uint64_t schemes = 0;
};

/** One sampled numerator+rate snapshot, for formatting. */
struct ProgressSample
{
    ProgressTotals totals;
    std::uint64_t shards_done = 0;
    std::uint64_t trials_done = 0;
    std::uint64_t schemes_done = 0;
    double trials_per_second = 0.0;
    /** Negative = unknown (no throughput measured yet). */
    double eta_seconds = -1.0;
};

/** Pure formatter for one status line (exposed for tests). */
std::string formatProgressLine(const ProgressSample& sample);

/** Renders the live line from the campaign's own counts. */
class ProgressReporter
{
  public:
    /**
     * Reads the campaign's totals and numerators (the reporter adds
     * the rate and ETA). Called on the render thread while the
     * campaign runs, so it may read only what is safe to read
     * concurrently.
     */
    using Sampler = std::function<ProgressSample()>;

    /** Starts the render thread iff the mode (and TTY) says so. */
    ProgressReporter(ProgressMode mode, Sampler sampler);

    ProgressReporter(const ProgressReporter&) = delete;
    ProgressReporter& operator=(const ProgressReporter&) = delete;

    /** Stops and clears the line if still running. */
    ~ProgressReporter();

    /** True when a render thread is live. */
    bool enabled() const { return enabled_; }

    /** Join the render thread and erase the status line. */
    void stop();

  private:
    void renderLoop();

    Sampler sampler_;
    bool enabled_ = false;
    std::chrono::steady_clock::time_point start_;
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool stopping_ = false;
    std::thread thread_;
};

} // namespace gpuecc::obs

#endif // GPUECC_OBS_PROGRESS_HPP
