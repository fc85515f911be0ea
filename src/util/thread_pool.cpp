#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace churnstore {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain_help(std::uint64_t epoch, std::size_t count,
                            const std::function<void(std::size_t)>& fn) {
  // Exceptions from fn must neither hang the barrier (a drainer that died
  // without bumping job_done_) nor unwind the caller's frame while other
  // drainers still hold `fn`: every drain catches, keeps the error of the
  // lowest failing index, keeps counting, and the posting caller rethrows
  // after the barrier.
  const std::uint64_t goal = (epoch << 32) | static_cast<std::uint64_t>(count);
  std::uint64_t cur = job_claim_.load(std::memory_order_acquire);
  // job_claim_ is monotonic and was set to (epoch << 32) before this job's
  // drainers could observe it, so cur < goal already implies the epoch bits
  // match: the CAS can only claim indices of THIS job.
  while (cur < goal) {
    if (!job_claim_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_acq_rel)) {
      continue;  // cur was reloaded by the failed CAS
    }
    const std::size_t i = static_cast<std::size_t>(cur & 0xffffffffULL);
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job_error_ || i < job_error_index_) {
        job_error_ = std::current_exception();
        job_error_index_ = i;
      }
    }
    if (job_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
      std::lock_guard<std::mutex> lock(mu_);
      job_cv_.notify_all();
    }
    cur = job_claim_.load(std::memory_order_acquire);
  }
}

void ThreadPool::for_each_helping(std::size_t count,
                                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1) {
    fn(0);
    return;
  }
  std::uint64_t epoch = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (job_active_) {
      // The single job slot is taken: either fn of the active job called
      // back in (nesting), or another thread is mid-job. Run serially
      // inline — no lock held, so the active job keeps draining — with the
      // same run-everything-then-rethrow-the-lowest contract.
      lock.unlock();
      std::exception_ptr err;
      for (std::size_t i = 0; i < count; ++i) {
        try {
          fn(i);
        } catch (...) {
          if (!err) err = std::current_exception();
        }
      }
      if (err) std::rethrow_exception(err);
      return;
    }
    job_active_ = true;
    epoch = ++job_epoch_;
    job_count_ = count;
    job_fn_ = &fn;
    job_error_ = nullptr;
    job_done_.store(0, std::memory_order_relaxed);
    job_claim_.store(epoch << 32, std::memory_order_release);
  }
  cv_.notify_all();
  drain_help(epoch, count, fn);
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    job_cv_.wait(lock, [this, count] {
      return job_done_.load(std::memory_order_acquire) == count;
    });
    // Barrier passed: every index ran and returned, so no drainer can still
    // be inside fn; stale workers fail their epoch-checked CAS harmlessly.
    job_active_ = false;
    job_fn_ = nullptr;
    err = job_error_;
    job_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::uint64_t epoch = 0;
    std::size_t count = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        // Wake for the slot only while it still has unclaimed indices —
        // once they are all claimed the comparison goes false and workers
        // stop spinning even though job_active_ stays set until the
        // caller's barrier clears it.
        return stopping_ ||
               (job_active_ &&
                job_claim_.load(std::memory_order_relaxed) <
                    ((job_epoch_ << 32) | static_cast<std::uint64_t>(job_count_)));
      });
      if (stopping_) return;
      epoch = job_epoch_;
      count = job_count_;
      fn = job_fn_;
    }
    drain_help(epoch, count, *fn);
  }
}

}  // namespace churnstore
