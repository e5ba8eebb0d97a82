/** @file Tests for the work-stealing thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace gpuecc {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        for (std::uint64_t n : {0ull, 1ull, 7ull, 1000ull}) {
            ThreadPool pool(threads);
            std::vector<std::atomic<int>> hits(n);
            pool.parallelFor(n, [&](std::uint64_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::uint64_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "threads=" << threads << " n=" << n
                    << " i=" << i;
        }
    }
}

TEST(ThreadPool, ReusableAcrossLoops)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(100, [&](std::uint64_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(ThreadPool, ThreadCountResolution)
{
    EXPECT_EQ(ThreadPool(1).threadCount(), 1);
    EXPECT_EQ(ThreadPool(5).threadCount(), 5);
    EXPECT_EQ(ThreadPool(0).threadCount(),
              ThreadPool::hardwareThreads());
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

TEST(ThreadPool, PropagatesFirstException)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        std::atomic<std::uint64_t> executed{0};
        EXPECT_THROW(
            pool.parallelFor(64,
                             [&](std::uint64_t i) {
                                 executed.fetch_add(1);
                                 if (i == 13)
                                     throw std::runtime_error("boom");
                             }),
            std::runtime_error);
        // The loop drains before rethrowing, so the pool stays usable.
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(10, [&](std::uint64_t i) {
            sum.fetch_add(i);
        });
        EXPECT_EQ(sum.load(), 45u);
    }
}

TEST(ThreadPool, OversubscriptionIsDeterministic)
{
    // More workers than hardware threads: coverage and mergeable
    // results must be unaffected — short campaigns on small hosts
    // and the CI runners both land here.
    const int threads = 4 * ThreadPool::hardwareThreads();
    for (int round = 0; round < 5; ++round) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(1000);
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(hits.size(), [&](std::uint64_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
        EXPECT_EQ(sum.load(), 499500u);
    }
}

TEST(ThreadPool, CurrentWorkerIdsAreDenseAndStable)
{
    // Outside any loop the calling thread is worker 0.
    EXPECT_EQ(ThreadPool::currentWorker(), 0);
    ThreadPool pool(4);
    std::vector<std::atomic<int>> seen(pool.threadCount());
    // Spawned workers park in their first task until the caller has
    // run one; without this, a loaded host can let them steal the
    // caller's whole queue shard before it pops once, and the
    // worker-0-participated assertion below would race.
    std::atomic<bool> caller_ran{false};
    pool.parallelFor(256, [&](std::uint64_t) {
        const int w = ThreadPool::currentWorker();
        ASSERT_GE(w, 0);
        ASSERT_LT(w, pool.threadCount());
        if (w == 0)
            caller_ran.store(true, std::memory_order_release);
        else
            while (!caller_ran.load(std::memory_order_acquire))
                std::this_thread::yield();
        seen[w].fetch_add(1, std::memory_order_relaxed);
    });
    int total = 0;
    for (auto& s : seen)
        total += s.load();
    EXPECT_EQ(total, 256);
    // The calling thread participated as worker 0.
    EXPECT_GT(seen[0].load(), 0);
}

TEST(ThreadPool, WorkerArenaSlotsAreIsolatedAndMergeable)
{
    ThreadPool pool(4);
    WorkerArena<std::uint64_t> sums(pool);
    EXPECT_EQ(sums.size(), pool.threadCount());
    pool.parallelFor(1000, [&](std::uint64_t i) {
        sums.local() += i; // unsynchronized by design
    });
    std::uint64_t total = 0;
    for (int w = 0; w < sums.size(); ++w)
        total += sums.at(w);
    EXPECT_EQ(total, 499500u);
}

TEST(ThreadPool, PerWorkerBusySecondsSumToBusy)
{
    ThreadPool pool(3);
    pool.parallelFor(300, [&](std::uint64_t) {
        volatile int spin = 0;
        for (int i = 0; i < 1000; ++i)
            spin = spin + i;
    });
    const ThreadPool::Stats stats = pool.stats();
    ASSERT_EQ(stats.worker_busy_seconds.size(), 3u);
    double sum = 0.0;
    for (double s : stats.worker_busy_seconds) {
        EXPECT_GE(s, 0.0);
        sum += s;
    }
    EXPECT_NEAR(sum, stats.busy_seconds, 1e-9);
}

} // namespace
} // namespace gpuecc
