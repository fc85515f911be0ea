// Fixed-size thread pool with one scheduling mechanism: a persistent
// fork-join slot. for_each_helping runs fn(i) for every index across the
// workers AND the calling thread, then rethrows the lowest failing index's
// exception. Runner's Monte-Carlo trials (core/runner.h) and the round
// engine's shard phases (Network::run_sharded) both go through it; each
// trial owns its own RNG fork and simulator, and each shard task only the
// state of its shard, so nothing else needs synchronization.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace churnstore {

class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency (at least 1). The calling
  /// thread of for_each_helping works too, so a call runs on threads + 1.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [0, count) and returns once every index has run.
  /// The CALLING thread drains indices from a shared counter alongside the
  /// pool workers. If fn throws, the remaining indices still run, and the
  /// exception of the lowest failing index is rethrown here after the
  /// barrier, so the error a failing run reports does not depend on timing.
  ///
  /// Dispatch is allocation-free at steady state: the pool owns ONE
  /// persistent fork-join slot (no per-call task packaging), so the round
  /// engine's sharded phases stay heap-quiet under HeapQuiesceScope. A call
  /// made while the slot is taken — fn of the active job calling back in
  /// (a trial's shard phase inside a multi-trial run), or a second thread
  /// calling while a job is in flight — runs its indices serially inline,
  /// so the nesting can never deadlock; it only degrades to serial.
  void for_each_helping(std::size_t count,
                        const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  /// Claim-and-run loop for the active fork-join job, shared by workers
  /// and the posting caller. `epoch` pins the job generation: the claim
  /// counter is (epoch << 32) | next_index, so a worker descheduled across
  /// a job boundary can never claim an index of a later job with this
  /// job's `fn` (its CAS fails once the epoch bits move on).
  void drain_help(std::uint64_t epoch, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;

  /// --- persistent fork-join slot -----------------------------------------
  bool job_active_ = false;                                 ///< guarded by mu_
  std::uint64_t job_epoch_ = 0;                             ///< guarded by mu_
  std::size_t job_count_ = 0;                               ///< guarded by mu_
  const std::function<void(std::size_t)>* job_fn_ = nullptr;  ///< guarded by mu_
  std::exception_ptr job_error_;     ///< lowest failing index's; guarded by mu_
  std::size_t job_error_index_ = 0;  ///< guarded by mu_
  std::atomic<std::uint64_t> job_claim_{0};  ///< (epoch << 32) | next index
  std::atomic<std::size_t> job_done_{0};     ///< indices finished this job
  std::condition_variable job_cv_;           ///< caller's completion barrier
};

}  // namespace churnstore
