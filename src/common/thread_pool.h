// Fixed-size thread pool executing std::function jobs.
//
// Building block for the task-executor workers and parallel ML kernels
// (isolation-forest tree training, k-means assignment).
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/queue.h"

namespace pe {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads,
                      std::string name_prefix = "pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job; returns false after shutdown started.
  bool submit(std::function<void()> job);

  /// Enqueue a job and get a future for its completion/result.
  template <typename F>
  auto submit_with_result(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    submit([task] { (*task)(); });
    return fut;
  }

  /// Run `f(i)` for i in [0, n) across the pool and wait for completion.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& f);

  std::size_t size() const { return threads_.size(); }

  /// Stop accepting jobs, drain the queue, join all threads.
  void shutdown();

 private:
  void worker_loop();

  // Job inbox sits at the bottom of the exec-domain lock hierarchy
  // (Scheduler -> worker queue), so dispatch under the scheduler lock is
  // a legal descent; the reverse order is a deadlock.
  BoundedQueue<std::function<void()>> jobs_{1 << 16};
  std::vector<std::thread> threads_;
};

}  // namespace pe
