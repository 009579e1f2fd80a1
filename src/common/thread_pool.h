// Fixed-size thread pool executing std::function jobs: the cores of a
// task-executor Worker.
#pragma once

#include <functional>
#include <string>
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
