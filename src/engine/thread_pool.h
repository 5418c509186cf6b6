// Fixed-size worker pool fed by a bounded work queue.
//
// submit() applies backpressure: it blocks until a queue slot frees up, so
// a fast producer cannot buffer an unbounded number of pending tasks.
// Tasks must not throw: every submitter catches its own failures (the
// ChunkRunner's attempt wrapper, the engine's min/max pass, WaferSimulator
// bands), because a task failure must not tear down the pool while sibling
// tasks are still in flight.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "common/types.h"
#include "engine/bounded_queue.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace ceresz::engine {

class ThreadPool {
 public:
  /// `threads` must be >= 1. `queue_capacity` bounds the number of
  /// submitted-but-not-started tasks (0 picks 2 * threads). A non-null
  /// `tracer` records worker lifetime + per-task busy spans and a
  /// "pool.queue_depth" counter track; it must outlive the pool.
  explicit ThreadPool(u32 threads, std::size_t queue_capacity = 0,
                      obs::Tracer* tracer = nullptr);

  /// Joins the workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task, blocking while the queue is full. Must not be called
  /// after the destructor has begun, nor from one of this pool's own tasks
  /// (a full queue would wait on itself) — use try_submit() +
  /// run_one_inline() there.
  ///
  /// The submitter's ambient obs::TraceContext is captured with the task
  /// and re-installed around its execution (worker or inline), so spans
  /// recorded inside pool tasks stay attributed to the request that
  /// submitted them.
  void submit(std::function<void()> task);

  /// Non-blocking submit: false when the queue is full (caller should run
  /// a queued task inline or wait and retry).
  bool try_submit(std::function<void()> task);

  /// Pop one queued task and execute it on the calling thread. Returns
  /// false when the queue was empty. This is how a submitter makes
  /// progress while the pool is saturated instead of blocking on it.
  bool run_one_inline();

  /// Block until every submitted task has finished executing.
  void wait_idle();

  u32 size() const { return static_cast<u32>(workers_.size()); }

  /// Tasks queued but not yet started.
  std::size_t queue_depth() const { return queue_.depth(); }

  /// Seconds each worker spent executing tasks. Call only while idle
  /// (after wait_idle() or from the destructor's thread post-join).
  std::vector<f64> busy_seconds() const;

  /// Largest backlog the work queue ever reached.
  std::size_t queue_high_water() const { return queue_.high_water(); }

 private:
  /// A queued task plus the trace context active where it was submitted.
  struct PoolTask {
    std::function<void()> fn;
    obs::TraceContext ctx;
  };

  void worker_loop(u32 index);
  void run_tasks(u32 index);

  obs::Tracer* tracer_ = nullptr;  // set before workers start, then const
  BoundedQueue<PoolTask> queue_;
  std::vector<std::thread> workers_;
  std::vector<f64> busy_seconds_;  // one slot per worker, owner-written

  // in_flight_ counts submitted-but-unfinished tasks; idle_ fires when it
  // reaches zero. The mutex also orders busy_seconds_ writes (made before
  // the finishing decrement) with reads after wait_idle().
  mutable std::mutex state_mutex_;
  std::condition_variable idle_;
  u64 in_flight_ = 0;
};

}  // namespace ceresz::engine
