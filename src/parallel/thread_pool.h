#ifndef RISGRAPH_PARALLEL_THREAD_POOL_H_
#define RISGRAPH_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace risgraph {

/// A fork-join thread pool specialized for data-parallel loops.
///
/// RisGraph's engine issues many short parallel regions (a push step over a
/// small active set), so the pool dispatches loops via a shared atomic
/// cursor instead of a task queue. Idle workers park on a condition
/// variable (no spinning); every ParallelFor wakes all of them, which is why
/// callers run small loops inline instead. This is the substrate under both
/// intra-update parallelism (parallel incremental computing) and
/// inter-update parallelism (parallel safe updates).
class ThreadPool {
 public:
  /// Creates `num_threads` workers (including the calling thread as worker 0
  /// during ParallelFor). num_threads == 1 runs everything inline.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Runs fn(thread_id, begin, end) over chunks of [0, total) until all work
  /// is claimed. Blocks until every chunk completed. `grain` is the chunk
  /// size claimed per atomic increment.
  void ParallelFor(uint64_t total, uint64_t grain,
                   const std::function<void(size_t, uint64_t, uint64_t)>& fn);

  /// Runs fn(thread_id) once on every worker in parallel.
  void RunOnAll(const std::function<void(size_t)>& fn);

  /// Process-wide pool, sized from RISGRAPH_THREADS or hardware concurrency.
  static ThreadPool& Global();
  /// Re-creates the global pool with a new size (test/bench hook; not
  /// thread-safe against concurrent Global() users).
  static void ResetGlobal(size_t num_threads);

 private:
  struct Loop {
    std::atomic<uint64_t> cursor{0};
    uint64_t total = 0;
    uint64_t grain = 1;
    const std::function<void(size_t, uint64_t, uint64_t)>* fn = nullptr;
    const std::function<void(size_t)>* once_fn = nullptr;
    std::atomic<size_t> done_workers{0};
  };

  void WorkerMain(size_t tid);
  void RunLoop(size_t tid);

  size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};
  Loop loop_;

  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

}  // namespace risgraph

#endif  // RISGRAPH_PARALLEL_THREAD_POOL_H_
