#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace snnfi::util {

// Per-thread reentrancy flag (nested parallel_for falls back to serial);
// thread_local, so no cross-thread mutation is possible.
thread_local bool ThreadPool::in_pool_job_ = false;  // snnfi-lint: allow(mutable-global)

std::size_t resolve_worker_count(std::size_t requested) noexcept {
    if (requested != 0) return requested;
    const std::size_t hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 4;
}

ThreadPool::ThreadPool(std::size_t max_workers) {
    const std::size_t total = resolve_worker_count(max_workers);
    threads_.reserve(total - 1);
    for (std::size_t t = 0; t + 1 < total; ++t) {
        threads_.emplace_back([this] {
            std::unique_lock<std::mutex> lock(mutex_);
            for (;;) {
                work_available_.wait(lock, [this] {
                    return stopping_ || (job_ != nullptr && job_->next < job_->count);
                });
                if (stopping_) return;
                // Indices are claimed inside this same critical section
                // (work_on is entered with the lock held), so the job
                // cannot complete — and its stack frame cannot die — while
                // a woken worker still holds an unexecuted claim on it.
                work_on(lock, *job_);
            }
        });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (auto& thread : threads_) thread.join();
}

void ThreadPool::work_on(std::unique_lock<std::mutex>& lock, Job& job) {
    // Pre/post-condition: `lock` holds mutex_. The job stays alive for the
    // whole call: every claimed index keeps completed < count until its
    // body has run, and parallel_for cannot return (destroying the job)
    // before completed == count.
    for (;;) {
        if (job.next >= job.count) return;
        const std::size_t index = job.next++;
        lock.unlock();
        in_pool_job_ = true;
        std::exception_ptr error;
        try {
            (*job.body)(index);
        } catch (...) {
            error = std::current_exception();
        }
        in_pool_job_ = false;
        lock.lock();
        if (error && !job.error) job.error = error;
        if (++job.completed == job.count) {
            job_done_.notify_all();
            return;
        }
    }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
    if (count == 0) return;
    // Serial fast paths: single item, no extra threads, or a nested call
    // from inside a pool worker (avoids deadlocking on the one-job slot).
    if (count == 1 || threads_.empty() || in_pool_job_) {
        for (std::size_t i = 0; i < count; ++i) body(i);
        return;
    }

    Job job;
    job.body = &body;
    job.count = count;

    std::unique_lock<std::mutex> lock(mutex_);
    if (job_ != nullptr)
        throw std::logic_error(
            "ThreadPool::parallel_for: concurrent call on the same pool "
            "(one job at a time; run outer loops serially)");
    job_ = &job;
    work_available_.notify_all();
    // The caller participates, and claims index 0 before releasing the
    // lock: the index-0-on-the-caller contract (thread_pool.hpp).
    work_on(lock, job);
    job_done_.wait(lock, [&job] { return job.completed == job.count; });
    job_ = nullptr;
    if (job.error) {
        const std::exception_ptr error = job.error;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void for_each_index(ThreadPool* pool, std::size_t count,
                    const std::function<void(std::size_t)>& body) {
    if (pool != nullptr) {
        pool->parallel_for(count, body);
    } else {
        for (std::size_t i = 0; i < count; ++i) body(i);
    }
}

std::size_t chunk_count(const ThreadPool* pool, std::size_t items) noexcept {
    constexpr std::size_t kChunksPerWorker = 4;
    const std::size_t chunks = pool != nullptr ? kChunksPerWorker * pool->max_workers() : 1;
    return std::min(chunks, items);
}

}  // namespace snnfi::util
