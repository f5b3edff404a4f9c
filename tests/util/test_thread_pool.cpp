#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

namespace snnfi::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.max_workers(), 4u);
    std::vector<std::atomic<int>> counts(100);
    pool.parallel_for(100, [&](std::size_t i) { counts[i].fetch_add(1); });
    for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, SingleWorkerRunsSerially) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.max_workers(), 1u);
    std::vector<int> order;
    pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, IndexedResultsIdenticalAcrossWorkerCounts) {
    auto compute = [](std::size_t workers) {
        ThreadPool pool(workers);
        std::vector<double> out(64);
        pool.parallel_for(64, [&](std::size_t i) {
            out[i] = static_cast<double>(i) * 1.5 - 3.0;
        });
        return out;
    };
    EXPECT_EQ(compute(1), compute(4));
}

TEST(ThreadPool, EmptyAndReuse) {
    ThreadPool pool(3);
    pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
    std::atomic<int> total{0};
    for (int round = 0; round < 5; ++round)
        pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, PropagatesException) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(8,
                                   [](std::size_t i) {
                                       if (i == 3) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // Pool stays usable after a failed job.
    std::atomic<int> ran{0};
    pool.parallel_for(4, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, NestedCallFallsBackToSerial) {
    ThreadPool pool(2);
    std::atomic<int> inner_total{0};
    pool.parallel_for(4, [&](std::size_t) {
        pool.parallel_for(3, [&](std::size_t) { inner_total.fetch_add(1); });
    });
    EXPECT_EQ(inner_total.load(), 12);
}

TEST(ThreadPool, IndexZeroRunsOnTheCallingThread) {
    for (const std::size_t workers : {std::size_t{4}, std::size_t{1}}) {
        ThreadPool pool(workers);
        for (int round = 0; round < 50; ++round) {
            std::thread::id first;
            pool.parallel_for(16, [&](std::size_t i) {
                if (i == 0) first = std::this_thread::get_id();
            });
            EXPECT_EQ(first, std::this_thread::get_id()) << workers << " workers";
        }
    }
}

TEST(ThreadPool, NestedIndexZeroRunsOnTheNestingThread) {
    ThreadPool pool(3);
    std::vector<std::thread::id> outer(8);
    std::vector<std::thread::id> inner(8);
    pool.parallel_for(8, [&](std::size_t i) {
        outer[i] = std::this_thread::get_id();
        pool.parallel_for(4, [&](std::size_t j) {
            if (j == 0) inner[i] = std::this_thread::get_id();
        });
    });
    EXPECT_EQ(outer[0], std::this_thread::get_id());
    EXPECT_EQ(inner, outer);
}

TEST(ThreadPool, ConcurrentCallFromSecondThreadThrows) {
    ThreadPool pool(2);
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> release_future = release.get_future().share();
    std::thread runner([&] {
        pool.parallel_for(2, [&](std::size_t i) {
            if (i == 0) started.set_value();
            release_future.wait();
        });
    });
    started.get_future().wait();  // first job is definitely in flight
    EXPECT_THROW(pool.parallel_for(2, [](std::size_t) {}), std::logic_error);
    release.set_value();
    runner.join();
}

TEST(ResolveWorkerCount, ZeroMeansHardware) {
    EXPECT_GE(resolve_worker_count(0), 1u);
    EXPECT_EQ(resolve_worker_count(7), 7u);
}

// Regression: `workers == 0` must clamp to at least one usable worker (the
// caller) instead of constructing an empty, dead pool.
TEST(ThreadPool, ZeroWorkersClampsAndRuns) {
    ThreadPool pool(0);
    EXPECT_GE(pool.max_workers(), 1u);
    std::atomic<int> ran{0};
    pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 16);
}

// Regression: an exception thrown on a *pool* thread (not the
// participating caller) must reach the caller instead of terminating. The
// caller's indices block until a pool thread has thrown and never throw
// themselves, so the propagated error is guaranteed to originate off the
// caller.
TEST(ThreadPool, WorkerThreadExceptionReachesCaller) {
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> worker_threw{false};
    try {
        pool.parallel_for(64, [&](std::size_t) {
            if (std::this_thread::get_id() == caller) {
                while (!worker_threw.load()) std::this_thread::yield();
                return;
            }
            worker_threw.store(true);
            throw std::runtime_error("pool-thread failure");
        });
        FAIL() << "expected the pool-thread exception to propagate";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "pool-thread failure");
    }
    EXPECT_TRUE(worker_threw.load());
    // Pool stays usable after the failed job.
    std::atomic<int> ran{0};
    pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

// TSan target: tear a pool down immediately after jobs in which several
// workers throw at once. Exercises the stopping_/job_ handshake and the
// first-error-wins write to job.error under real contention; run under
// `-DSNNFI_SANITIZE=thread` this is the shutdown-race detector.
TEST(ThreadPoolStress, RapidCreateThrowDestroyCycles) {
    for (int cycle = 0; cycle < 50; ++cycle) {
        ThreadPool pool(4);
        std::atomic<int> ran{0};
        try {
            pool.parallel_for(32, [&](std::size_t i) {
                ran.fetch_add(1);
                if (i % 5 == 0) throw std::runtime_error("stress");
            });
            FAIL() << "expected at least one throw to propagate";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "stress");
        }
        EXPECT_GT(ran.load(), 0);
        // Destructor runs here, possibly while workers are still parked
        // between the failed job and the next wait.
    }
}

// TSan target: two threads hammer the same pool concurrently. By contract
// exactly one job runs at a time; the loser must get logic_error and
// every accepted index must still run exactly once.
TEST(ThreadPoolStress, CompetingSubmittersSerializeOrThrow) {
    ThreadPool pool(4);
    std::atomic<int> total{0};
    std::atomic<int> rejected{0};
    auto submit_loop = [&] {
        for (int round = 0; round < 40; ++round) {
            try {
                pool.parallel_for(16, [&](std::size_t) { total.fetch_add(1); });
            } catch (const std::logic_error&) {
                rejected.fetch_add(1);
            }
        }
    };
    std::thread rival(submit_loop);
    submit_loop();
    rival.join();
    // Every job that was accepted ran all 16 indices; rejected ones ran none.
    EXPECT_EQ(total.load(), (80 - rejected.load()) * 16);
}

// TSan target: destruction races the tail of a completed job — the caller
// returns from parallel_for on its own thread while pool workers may still
// be inside the run loop re-checking the predicate.
TEST(ThreadPoolStress, DestroyImmediatelyAfterCompletion) {
    for (int cycle = 0; cycle < 100; ++cycle) {
        std::atomic<int> ran{0};
        {
            ThreadPool pool(3);
            pool.parallel_for(9, [&](std::size_t) { ran.fetch_add(1); });
        }
        EXPECT_EQ(ran.load(), 9);
    }
}

}  // namespace
}  // namespace snnfi::util
