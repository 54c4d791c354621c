#ifndef TLP_COMMON_THREAD_POOL_H_
#define TLP_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace tlp {

/// Fixed-size worker pool. The paper uses OpenMP; we use std::thread so the
/// library has no compiler-extension dependency. Used by the batch executors
/// (§VI), the grid family's Build(), the query server and the live grid's
/// background merge.
///
/// Exception safety: a task that throws does not touch std::terminate. The
/// pool captures the first exception (std::exception_ptr), discards the
/// tasks still queued in that batch (they are counted as finished but never
/// run — failing fast instead of burning cores on work whose batch already
/// failed), and Wait() rethrows the captured exception on the calling
/// thread exactly once after every submitted task has finished or been
/// discarded. After the rethrow the pool is clean and reusable. Destroying
/// a pool with an unconsumed error just drops it — destructors must not
/// throw. ParallelFor/ParallelForChunks and everything built on them
/// (BatchExecutor, Build) inherit this contract through Wait().
///
/// Not copyable or movable: workers capture `this`.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Enqueues a task. Tasks must not themselves block on Wait(). A task
  /// submitted while a captured exception is pending joins the poisoned
  /// batch: it may be discarded unrun.
  void Submit(std::function<void()> task) TLP_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished executing (or was
  /// discarded after a failure), then rethrows the first exception any
  /// task of the batch threw. Returns normally when no task threw. Safe to
  /// call with zero submitted tasks.
  void Wait() TLP_EXCLUDES(mutex_);

  std::size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() TLP_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ TLP_GUARDED_BY(mutex_);
  CondVar task_ready_;
  CondVar all_done_;
  std::size_t in_flight_ TLP_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ TLP_GUARDED_BY(mutex_) = false;
  /// First exception thrown by a task since the last Wait(). Non-null also
  /// serves as the "discard queued work" flag.
  std::exception_ptr first_error_ TLP_GUARDED_BY(mutex_);
};

/// Splits [0, count) into contiguous chunks and runs `body(begin, end)` for
/// each chunk on the pool, blocking until all chunks complete. When the pool
/// has one worker the body runs once, inline on the calling thread.
/// Rethrows the first exception a chunk threw (after all chunks finished or
/// were discarded, so `body` is never still referenced when this returns).
void ParallelFor(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t, std::size_t)>& body);

/// Splits [0, count) into exactly `num_chunks` near-equal contiguous chunks
/// and runs `body(chunk, begin, end)` for every chunk index in
/// [0, num_chunks), blocking until all complete. The chunk boundaries depend
/// only on (count, num_chunks), so callers can give each chunk private
/// scratch state (e.g. a per-chunk count array) and merge deterministically
/// afterwards. Chunks may be empty (begin == end); every chunk index is
/// still invoked. With a one-worker pool (or one chunk) the chunks run
/// inline on the calling thread in index order. Exceptions propagate as in
/// ParallelFor.
void ParallelForChunks(
    ThreadPool& pool, std::size_t count, std::size_t num_chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace tlp

#endif  // TLP_COMMON_THREAD_POOL_H_
