#include "common/thread_pool.h"

#include <string>

#include "common/check.h"

namespace dmlscale {

Status ValidateThreadCount(std::string_view field, int threads) {
  if (threads < 1 || threads > kMaxThreads) {
    return Status::InvalidArgument(std::string(field) + " must be in [1, " +
                                   std::to_string(kMaxThreads) + "], got " +
                                   std::to_string(threads));
  }
  return Status::OK();
}

ThreadPool::ThreadPool(size_t num_threads) {
  DMLSCALE_CHECK_GE(num_threads, 1u);
  DMLSCALE_CHECK_LE(num_threads, static_cast<size_t>(kMaxThreads));
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_available_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    DMLSCALE_CHECK_MSG(!stop_, "Submit after shutdown");
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (tasks_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace dmlscale
