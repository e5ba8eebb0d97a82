/**
 * @file
 * Work-stealing thread pool for deterministic Monte Carlo campaigns.
 *
 * The campaign engine shards its work into chunks whose results are
 * independent of execution order, so the pool only has to distribute
 * chunk indices fairly: each worker owns a deque seeded with a
 * contiguous block and steals from the tail of a victim's deque when
 * its own runs dry. The calling thread participates as worker 0, and
 * a pool of one thread runs everything inline, which keeps
 * single-threaded runs free of synchronization overhead.
 *
 * Workers are identified by a dense id in [0, threadCount()) exposed
 * via currentWorker(), which keys the cache-line-aligned per-worker
 * arenas (WorkerArena) the campaign engine accumulates tallies and
 * batch buffers in: each worker mutates only its own line-aligned
 * slot, so the hot path never false-shares, and the slots are merged
 * once after the pool drains.
 */

#ifndef GPUECC_COMMON_THREAD_POOL_HPP
#define GPUECC_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gpuecc {

/**
 * Destructive-interference granularity the per-worker arenas pad to.
 * A fixed 64 bytes (every mainstream x86-64/AArch64 line size) rather
 * than std::hardware_destructive_interference_size, whose value is a
 * compile-flag artifact on gcc and not portable across TUs.
 */
constexpr std::size_t kCacheLineBytes = 64;

/**
 * A value padded and aligned to a whole number of cache lines, so
 * adjacent array elements can never share a line. This is the unit
 * WorkerArena hands each worker: writes to one worker's slot can't
 * invalidate a neighbour's line (false sharing).
 */
template <typename T>
struct alignas(kCacheLineBytes) CacheAligned
{
    T value{};
};

static_assert(sizeof(CacheAligned<std::uint64_t>) % kCacheLineBytes ==
                  0,
              "alignas must pad CacheAligned to whole cache lines");

/** A fixed-size work-stealing pool executing indexed loops. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 means one per hardware thread.
     *                The calling thread is one of the workers.
     */
    explicit ThreadPool(int threads = 0);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool();

    /** Number of workers (including the calling thread). */
    int threadCount() const { return num_threads_; }

    /**
     * Dense id of the pool worker executing the current thread, in
     * [0, threadCount()). Only meaningful inside a parallelFor body;
     * outside one it returns 0 (the calling thread's slot), which
     * makes single-threaded helper code arena-compatible for free.
     */
    static int currentWorker();

    /** Lifetime execution counters across every parallelFor so far. */
    struct Stats
    {
        std::uint64_t tasks_executed = 0;
        /** Tasks a worker took from another worker's queue. */
        std::uint64_t steals = 0;
        /** Summed per-worker time spent inside task bodies. */
        double busy_seconds = 0.0;
        /** Wall-clock time spent inside parallelFor calls. */
        double wall_seconds = 0.0;
        /** Per-worker time inside task bodies (sums to busy_seconds). */
        std::vector<double> worker_busy_seconds;
    };

    /** Snapshot of the counters (call between loops, not during). */
    Stats stats() const;

    /**
     * Run body(i) for every i in [0, n), distributed over the pool;
     * blocks until all iterations finish. The first exception thrown
     * by any iteration is rethrown on the calling thread after the
     * loop drains. Iteration order is unspecified, so the body must
     * only produce order-independent (mergeable) results.
     */
    void parallelFor(std::uint64_t n,
                     const std::function<void(std::uint64_t)>& body);

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareThreads();

    /** Map a user-facing --threads value (0 = auto) to a count. */
    static int resolveThreadCount(int requested);

  private:
    struct Worker
    {
        std::deque<std::uint64_t> queue;
        std::mutex mutex;
    };

    void workerLoop(int self);
    void drain(int self);
    bool popOwn(int self, std::uint64_t& idx);
    bool steal(int self, std::uint64_t& idx);

    int num_threads_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    // Generation gate: bumping generation_ releases the background
    // workers into drain(); remaining_ counts unfinished iterations.
    std::mutex gate_mutex_;
    std::condition_variable gate_cv_;
    std::uint64_t generation_ = 0;
    bool shutdown_ = false;

    const std::function<void(std::uint64_t)>* body_ = nullptr;
    mutable std::mutex done_mutex_;
    std::condition_variable done_cv_;
    std::uint64_t remaining_ = 0;
    /** Guarded by done_mutex_; merged from per-drain local tallies. */
    Stats stats_;

    std::mutex error_mutex_;
    std::exception_ptr first_error_;
};

/**
 * Per-worker scratch arena keyed by ThreadPool worker ids: one
 * cache-line-aligned, line-padded slot per worker, so each worker
 * mutates exclusively-owned lines during a parallelFor and the slots
 * are merged once afterwards — the false-sharing-free accumulator
 * pattern the campaign engine uses for its outcome tallies and batch
 * buffers. The arena must outlive the loops that use it and belongs
 * to exactly one pool (slot count == pool.threadCount()).
 */
template <typename T>
class WorkerArena
{
  public:
    explicit WorkerArena(const ThreadPool& pool)
        : slots_(static_cast<std::size_t>(pool.threadCount()))
    {
    }

    /** Number of worker slots. */
    int size() const { return static_cast<int>(slots_.size()); }

    /** The calling worker's slot (worker 0 outside a loop body). */
    T& local() { return slots_[ThreadPool::currentWorker()].value; }

    /** Slot of one worker (merge phase — pool must be quiescent). */
    T& at(int worker) { return slots_[worker].value; }
    const T& at(int worker) const { return slots_[worker].value; }

  private:
    std::vector<CacheAligned<T>> slots_;
};

} // namespace gpuecc

#endif // GPUECC_COMMON_THREAD_POOL_HPP
