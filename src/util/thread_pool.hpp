#pragma once
// Fixed-size thread pool with a deterministic parallel_for.
//
// The CONGEST simulator runs all node handlers of a round in parallel.
// Correctness does not depend on scheduling: each task writes only to
// per-node / per-directed-edge slots, so any interleaving yields identical
// results. The pool uses static chunking (no work stealing) so the mapping
// of index -> worker is stable, which lets callers keep per-worker scratch
// (e.g. the simulator's dirty-arc lists) without synchronization.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fc {

class ThreadPool {
 public:
  /// Function applied to one statically-assigned chunk:
  /// fn(worker_index, begin, end) with worker_index < size().
  using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Apply fn(i) for i in [0, n), statically chunked over all threads.
  /// Blocks until every index has been processed.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunked variant: each worker w handles indices [begin, end) exactly
  /// once via fn(w, begin, end). Chunk boundaries are deterministic in n.
  /// Concurrent calls from different threads serialize on an internal
  /// mutex (each job runs to completion before the next starts). NOT
  /// reentrant: calling parallel_chunks from inside fn deadlocks.
  ///
  /// Exceptions: a chunk that throws — on a helper thread or on the
  /// calling thread — ends only that chunk. parallel_chunks (and so
  /// parallel_for) still waits until every chunk has finished, then
  /// rethrows on the calling thread the first exception any chunk
  /// recorded; later ones from the same call are dropped. The pool stays
  /// usable.
  void parallel_chunks(std::size_t n, const ChunkFn& fn);

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& global();

 private:
  struct Job {
    std::size_t n = 0;
    const ChunkFn* fn = nullptr;
    std::size_t generation = 0;
  };

  void worker_loop(std::size_t worker_index);
  void run_chunk(std::size_t worker_index, std::size_t n, const ChunkFn& fn);

  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;  // serializes whole parallel_chunks calls
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Job job_;
  std::size_t workers_done_ = 0;
  std::exception_ptr job_error_;  // first exception thrown by this job
  bool stop_ = false;
};

}  // namespace fc
