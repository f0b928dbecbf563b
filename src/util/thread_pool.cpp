#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace fc {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  // The calling thread acts as worker 0; spawn threads-1 helpers.
  for (std::size_t i = 1; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunk(std::size_t worker_index, std::size_t n,
                           const ChunkFn& fn) {
  const std::size_t threads = size();
  const std::size_t chunk = (n + threads - 1) / threads;
  const std::size_t begin = std::min(n, worker_index * chunk);
  const std::size_t end = std::min(n, begin + chunk);
  fn(worker_index, begin, end);
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::size_t seen_generation = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock,
                     [&] { return stop_ || job_.generation != seen_generation; });
      if (stop_) return;
      job = job_;
      seen_generation = job.generation;
    }
    std::exception_ptr error;
    try {
      run_chunk(worker_index, job.n, *job.fn);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !job_error_) job_error_ = error;
      ++workers_done_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::parallel_chunks(std::size_t n, const ChunkFn& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    fn(0, 0, n);
    return;
  }
  // One job at a time: concurrent callers (e.g. two corpus loads sharing
  // the global pool) serialize instead of clobbering each other's job.
  std::lock_guard submit_lock(submit_mutex_);
  {
    std::lock_guard lock(mutex_);
    job_.n = n;
    job_.fn = &fn;
    ++job_.generation;
    workers_done_ = 0;
  }
  cv_start_.notify_all();
  // The helpers run `fn`, which may live in the caller's frame: even when
  // the caller's own chunk throws, return only after every chunk finished.
  std::exception_ptr error;
  try {
    run_chunk(0, n, fn);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::unique_lock lock(mutex_);
    if (error && !job_error_) job_error_ = error;
    cv_done_.wait(lock, [&] { return workers_done_ == workers_.size(); });
    error = std::exchange(job_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_chunks(n, [&fn](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fc
