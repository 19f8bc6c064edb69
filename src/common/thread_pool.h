#ifndef DMLSCALE_COMMON_THREAD_POOL_H_
#define DMLSCALE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"

namespace dmlscale {

/// The most threads any front-door field may ask a pool for. std::thread
/// throws, and so terminates the process, once a pool passes the process's
/// thread limit, so every field that sizes a pool is checked against this
/// bound before the pool exists.
inline constexpr int kMaxThreads = 256;

/// OK iff 1 <= threads <= kMaxThreads; otherwise InvalidArgument naming
/// `field`.
Status ValidateThreadCount(std::string_view field, int threads);

/// Fixed-size worker pool. Tasks are `std::function<void()>`; completion is
/// observed with WaitIdle(). Kept deliberately simple: the engine layer
/// builds data-parallel primitives (parallel_for, BSP supersteps) on top.
class ThreadPool {
 public:
  /// Starts `num_threads` workers, in [1, kMaxThreads].
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void WaitIdle();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable idle_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;
  size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace dmlscale

#endif  // DMLSCALE_COMMON_THREAD_POOL_H_
