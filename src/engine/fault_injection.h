// Deterministic fault injection for the host engine, mirroring the WSE
// simulator's FaultPlan: a WorkerFaultPlan names exactly which (chunk,
// attempt) pairs misbehave and how, so a chaos test can replay the same
// failure schedule on every run and across thread counts. Empty plans (the
// default) cost one map lookup per attempt and inject nothing.
#pragma once

#include <exception>
#include <map>
#include <utility>

#include "common/types.h"

namespace ceresz::engine {

/// Thrown by an attempt that WorkerFault::kCrash hits. The ChunkRunner
/// counts it in worker_crashes and retries the chunk; the worker that ran
/// the attempt carries on.
class WorkerCrash : public std::exception {
 public:
  const char* what() const noexcept override {
    return "injected worker crash";
  }
};

/// What an injected fault does to a chunk attempt.
enum class WorkerFault : u8 {
  kNone = 0,
  kThrow,  ///< the attempt throws a transient ceresz::Error (retryable)
  kCrash,  ///< the attempt throws WorkerCrash and is lost (retryable)
  kStall,  ///< the attempt sleeps for `stall_ms`, or until its deadline
};

/// Schedule of injected engine faults, keyed by (chunk index, attempt
/// number). Attempts count from 0, so `fail_chunk(c, 2)` makes the first
/// two attempts at chunk `c` throw and lets the third succeed — the shape
/// retry logic is tested with.
struct WorkerFaultPlan {
  /// How long an injected kStall sleeps before proceeding with the real
  /// work (unless the attempt's deadline comes first: then it times out).
  u64 stall_ms = 50;

  bool empty() const { return faults_.empty(); }

  /// Inject `fault` on attempt `attempt` at chunk `chunk`.
  void set(u64 chunk, u32 attempt, WorkerFault fault) {
    if (fault == WorkerFault::kNone) {
      faults_.erase({chunk, attempt});
    } else {
      faults_[{chunk, attempt}] = fault;
    }
  }

  /// Make the first `attempts` attempts at `chunk` throw transiently.
  void fail_chunk(u64 chunk, u32 attempts = 1) {
    for (u32 a = 0; a < attempts; ++a) set(chunk, a, WorkerFault::kThrow);
  }

  /// Make attempt `attempt` at `chunk` crash (throw WorkerCrash).
  void crash_chunk(u64 chunk, u32 attempt = 0) {
    set(chunk, attempt, WorkerFault::kCrash);
  }

  /// Make the first `attempts` attempts at `chunk` stall for stall_ms.
  void stall_chunk(u64 chunk, u32 attempts = 1) {
    for (u32 a = 0; a < attempts; ++a) set(chunk, a, WorkerFault::kStall);
  }

  /// One transient failure on every n-th chunk's first attempt — the
  /// degraded-mode workload bench_engine_scaling measures.
  static WorkerFaultPlan every_nth(u64 n, u64 n_chunks,
                                   WorkerFault fault = WorkerFault::kThrow) {
    WorkerFaultPlan plan;
    if (n > 0) {
      for (u64 c = 0; c < n_chunks; c += n) plan.set(c, 0, fault);
    }
    return plan;
  }

  WorkerFault fault(u64 chunk, u32 attempt) const {
    const auto it = faults_.find({chunk, attempt});
    return it == faults_.end() ? WorkerFault::kNone : it->second;
  }

  std::size_t fault_count() const { return faults_.size(); }

 private:
  std::map<std::pair<u64, u32>, WorkerFault> faults_;
};

}  // namespace ceresz::engine
