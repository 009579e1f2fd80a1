#include "common/thread_pool.h"

namespace pe {

ThreadPool::ThreadPool(std::size_t num_threads, std::string /*name_prefix*/) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::submit(std::function<void()> job) {
  return jobs_.push(std::move(job));
}

void ThreadPool::shutdown() {
  jobs_.close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void ThreadPool::worker_loop() {
  while (auto job = jobs_.pop()) {
    (*job)();
  }
}

}  // namespace pe
