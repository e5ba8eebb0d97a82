#include "common/thread_pool.hpp"

#include <chrono>

#include "common/log.hpp"

namespace gpuecc {

namespace {

/**
 * Dense worker id for the thread executing a parallelFor body.
 * Thread-locals default to 0, which is exactly right: the calling
 * thread is worker 0, and threads outside any pool fall back to the
 * slot single-threaded helpers expect.
 */
thread_local int tls_worker_id = 0;

} // namespace

int
ThreadPool::currentWorker()
{
    return tls_worker_id;
}

int
ThreadPool::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
ThreadPool::resolveThreadCount(int requested)
{
    if (requested < 0)
        fatal("thread count must be >= 0 (0 selects all cores)");
    return requested == 0 ? hardwareThreads() : requested;
}

ThreadPool::ThreadPool(int threads)
    : num_threads_(resolveThreadCount(threads))
{
    stats_.worker_busy_seconds.assign(
        static_cast<std::size_t>(num_threads_), 0.0);
    workers_.reserve(num_threads_);
    for (int i = 0; i < num_threads_; ++i)
        workers_.push_back(std::make_unique<Worker>());
    // Worker 0 is the calling thread; only spawn the others.
    threads_.reserve(num_threads_ - 1);
    for (int i = 1; i < num_threads_; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(gate_mutex_);
        shutdown_ = true;
    }
    gate_cv_.notify_all();
    for (std::thread& t : threads_)
        t.join();
}

void
ThreadPool::workerLoop(int self)
{
    tls_worker_id = self;
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(gate_mutex_);
            gate_cv_.wait(lock, [&] {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
        }
        drain(self);
    }
}

bool
ThreadPool::popOwn(int self, std::uint64_t& idx)
{
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.queue.empty())
        return false;
    idx = w.queue.front();
    w.queue.pop_front();
    return true;
}

bool
ThreadPool::steal(int self, std::uint64_t& idx)
{
    for (int off = 1; off < num_threads_; ++off) {
        const int victim = (self + off) % num_threads_;
        Worker& w = *workers_[victim];
        std::lock_guard<std::mutex> lock(w.mutex);
        if (w.queue.empty())
            continue;
        // Steal from the tail, away from the owner's pop end.
        idx = w.queue.back();
        w.queue.pop_back();
        return true;
    }
    return false;
}

ThreadPool::Stats
ThreadPool::stats() const
{
    std::lock_guard<std::mutex> lock(done_mutex_);
    return stats_;
}

void
ThreadPool::drain(int self)
{
    std::uint64_t idx = 0;
    std::uint64_t done = 0;
    std::uint64_t stolen = 0;
    double busy = 0.0;
    for (;;) {
        const bool own = popOwn(self, idx);
        if (!own && !steal(self, idx))
            break;
        const auto body_start = std::chrono::steady_clock::now();
        try {
            (*body_)(idx);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex_);
            if (!first_error_)
                first_error_ = std::current_exception();
        }
        busy += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - body_start)
                    .count();
        if (!own)
            ++stolen;
        ++done;
    }
    if (done > 0) {
        // One merge per drain, piggybacking on the completion lock,
        // keeps the telemetry off the per-task path.
        std::lock_guard<std::mutex> lock(done_mutex_);
        stats_.tasks_executed += done;
        stats_.steals += stolen;
        stats_.busy_seconds += busy;
        stats_.worker_busy_seconds[static_cast<std::size_t>(self)] +=
            busy;
        remaining_ -= done;
        if (remaining_ == 0)
            done_cv_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::uint64_t n,
                        const std::function<void(std::uint64_t)>& body)
{
    if (n == 0)
        return;
    if (num_threads_ == 1) {
        // Inline fast path: no queues, no locks.
        const auto loop_start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < n; ++i)
            body(i);
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - loop_start)
                .count();
        std::lock_guard<std::mutex> lock(done_mutex_);
        stats_.tasks_executed += n;
        stats_.busy_seconds += elapsed;
        stats_.worker_busy_seconds[0] += elapsed;
        stats_.wall_seconds += elapsed;
        return;
    }

    const auto loop_start = std::chrono::steady_clock::now();
    first_error_ = nullptr;
    body_ = &body;
    remaining_ = n;
    const auto w = static_cast<std::uint64_t>(num_threads_);
    for (std::uint64_t t = 0; t < w; ++t) {
        Worker& worker = *workers_[t];
        std::lock_guard<std::mutex> lock(worker.mutex);
        // Contiguous block per worker; stealing rebalances the rest.
        for (std::uint64_t i = n * t / w; i < n * (t + 1) / w; ++i)
            worker.queue.push_back(i);
    }
    {
        std::lock_guard<std::mutex> lock(gate_mutex_);
        ++generation_;
    }
    gate_cv_.notify_all();

    drain(0);
    {
        std::unique_lock<std::mutex> lock(done_mutex_);
        done_cv_.wait(lock, [&] { return remaining_ == 0; });
        stats_.wall_seconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - loop_start)
                .count();
    }
    body_ = nullptr;
    if (first_error_)
        std::rethrow_exception(first_error_);
}

} // namespace gpuecc
