// Shared worker pool for parallel sweeps.
//
// A Session owns one pool and every scenario sweep runs through it, so a
// batch over the whole registry reuses the same threads instead of each
// AttackSuite::run_many spawning its own. The pool executes one
// parallel_for at a time: the calling thread participates in the work, so
// `workers == 1` means "no extra threads, run serially on the caller" and
// results are index-addressed — identical output for any worker count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace snnfi::util {

class ThreadPool {
public:
    /// `max_workers` counts the calling thread; 0 = hardware concurrency.
    explicit ThreadPool(std::size_t max_workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total workers including the caller (>= 1).
    std::size_t max_workers() const noexcept { return threads_.size() + 1; }

    /// Runs body(0..count-1), distributing indices over the pool plus the
    /// calling thread. Blocks until all indices completed. The first
    /// exception thrown by any body is rethrown on the caller after the
    /// remaining indices finish. One job at a time: a nested call from
    /// inside a body runs serially on that worker, and a concurrent call
    /// from a second thread throws std::logic_error.
    ///
    /// Contract: index 0 runs on the calling thread — with workers the
    /// caller claims it under the lock before any worker can, and the
    /// serial paths (one worker, one index, a nested call) run every index
    /// there. A caller can give index 0 work whose allocations should stay
    /// in its own malloc arena (fi::CampaignEngine builds its rasters
    /// there).
    void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

private:
    struct Job {
        const std::function<void(std::size_t)>* body = nullptr;
        std::size_t count = 0;
        std::size_t next = 0;       ///< guarded by mutex_
        std::size_t completed = 0;  ///< guarded by mutex_
        std::exception_ptr error;   ///< first failure, guarded by mutex_
    };

    /// Claims and executes indices; entered and left with `lock` held.
    void work_on(std::unique_lock<std::mutex>& lock, Job& job);

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable job_done_;
    Job* job_ = nullptr;  ///< current job or nullptr, guarded by mutex_
    bool stopping_ = false;
    static thread_local bool in_pool_job_;
};

/// Resolves a user-facing worker-count knob (0 = all cores) to a concrete
/// positive count.
std::size_t resolve_worker_count(std::size_t requested) noexcept;

/// Runs body(0..count-1) through `pool` when one is given, serially on the
/// caller when `pool` is nullptr.
void for_each_index(ThreadPool* pool, std::size_t count,
                    const std::function<void(std::size_t)>& body);

/// How many contiguous chunks to cut `items` items into for `pool`: a few
/// per worker, so chunks of uneven cost still balance, and one without a
/// pool. Never more chunks than items.
std::size_t chunk_count(const ThreadPool* pool, std::size_t items) noexcept;

}  // namespace snnfi::util
