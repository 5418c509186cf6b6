#include "engine/thread_pool.h"

#include <algorithm>
#include <string>

#include "common/timer.h"

namespace ceresz::engine {

ThreadPool::ThreadPool(u32 threads, std::size_t queue_capacity,
                       obs::Tracer* tracer)
    : tracer_(tracer),
      queue_(queue_capacity > 0 ? queue_capacity
                                : 2 * std::max<u32>(1, threads)) {
  CERESZ_CHECK(threads >= 1, "ThreadPool: need at least one worker");
  busy_seconds_.assign(threads, 0.0);
  workers_.reserve(threads);
  for (u32 i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  queue_.close();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(state_mutex_);
    ++in_flight_;
  }
  if (!queue_.push(
          PoolTask{std::move(task), obs::current_trace_context()})) {
    // Closed pool: roll the count back so wait_idle() cannot hang.
    std::lock_guard lock(state_mutex_);
    --in_flight_;
    CERESZ_FAIL("ThreadPool: submit after shutdown");
  }
  if (tracer_) {
    tracer_->counter("pool.queue_depth",
                     static_cast<i64>(queue_.depth()));
  }
}

bool ThreadPool::try_submit(std::function<void()> task) {
  {
    std::lock_guard lock(state_mutex_);
    ++in_flight_;
  }
  if (!queue_.try_push(
          PoolTask{std::move(task), obs::current_trace_context()})) {
    std::lock_guard lock(state_mutex_);
    if (--in_flight_ == 0) idle_.notify_all();
    return false;
  }
  if (tracer_) {
    tracer_->counter("pool.queue_depth",
                     static_cast<i64>(queue_.depth()));
  }
  return true;
}

bool ThreadPool::run_one_inline() {
  auto task = queue_.try_pop();
  if (!task) return false;
  {
    const obs::TraceContextScope scope(task->ctx);
    (task->fn)();
  }
  std::lock_guard lock(state_mutex_);
  if (--in_flight_ == 0) idle_.notify_all();
  return true;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(state_mutex_);
  idle_.wait(lock, [&] { return in_flight_ == 0; });
}

std::vector<f64> ThreadPool::busy_seconds() const {
  std::lock_guard lock(state_mutex_);
  return busy_seconds_;
}

void ThreadPool::worker_loop(u32 index) {
  if (!tracer_) {
    run_tasks(index);
    return;
  }
  tracer_->set_thread_name(obs::kHostPid, tracer_->thread_id(),
                           "worker-" + std::to_string(index));
  const u64 start = tracer_->now_rel_ns();
  run_tasks(index);
  obs::TraceEvent ev;
  ev.name = "worker.lifetime";
  ev.cat = "pool";
  ev.ts_ns = start;
  ev.dur_ns = tracer_->now_rel_ns() - start;
  tracer_->record(ev);
}

void ThreadPool::run_tasks(u32 index) {
  while (auto task = queue_.pop()) {
    if (tracer_) {
      tracer_->counter("pool.queue_depth",
                       static_cast<i64>(queue_.depth()));
    }
    const u64 start_ns = now_ns();
    {
      // The submitter's trace context wraps the busy span too, so the
      // "task" wrapper itself carries the request's trace id.
      const obs::TraceContextScope scope(task->ctx);
      // The busy span and busy_seconds_ bracket the same region, so the
      // trace's task spans account for (cover) the measured busy time.
      obs::SpanGuard span(tracer_, "task", "pool");
      (task->fn)();
    }
    const f64 elapsed = static_cast<f64>(now_ns() - start_ns) * 1e-9;
    {
      std::lock_guard lock(state_mutex_);
      busy_seconds_[index] += elapsed;
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace ceresz::engine
