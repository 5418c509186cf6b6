// Fault-tolerant chunk execution on a ThreadPool.
//
// ChunkRunner::run() dispatches one attempt per chunk and shepherds every
// failure to a terminal state:
//   - transient failures (an internal or deadline ceresz::Error, any other
//     std::exception, injected throws and crashes) are retried with capped
//     exponential backoff, up to RetryPolicy::max_attempts attempts per
//     chunk;
//   - an invalid-argument or corrupt-data Error skips the retry ladder
//     entirely — the input or the bytes are wrong, which no retry fixes;
//   - with deadline_ms > 0 each attempt carries a CancelToken that expires
//     deadline_ms after the attempt was dispatched; chunk functions compare
//     it against the clock between blocks and abort with a kDeadline Error
//     once it has passed;
//   - an injected WorkerCrash loses only its attempt: the task records the
//     crash and returns, and the worker carries on with the next task.
//
// At most one attempt per chunk is ever in flight, so chunk functions may
// write their output slot in place; a retry observes the previous attempt
// fully finished. All retry decisions run on the calling thread — worker
// tasks only report outcomes — which keeps the policy single-threaded and
// easy to reason about.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "engine/thread_pool.h"

namespace ceresz::engine {

/// Retry/deadline policy for one run.
struct RetryPolicy {
  /// Total attempts per chunk (first try included). Must be >= 1.
  u32 max_attempts = 3;
  /// Backoff before retry k (k = 1, 2, ...): min(backoff_us << (k-1),
  /// backoff_cap_us) microseconds.
  u64 backoff_us = 200;
  u64 backoff_cap_us = 5000;
  /// Per-attempt deadline in milliseconds, counted from dispatch; 0 = none.
  u64 deadline_ms = 0;
};

/// The expiry of one chunk attempt. Only the attempt reads it: the chunk
/// function polls cancelled() between blocks and aborts by throwing an
/// Error of kind kDeadline.
class CancelToken {
 public:
  using clock = std::chrono::steady_clock;

  /// A token that never expires.
  CancelToken() = default;

  /// Expires `deadline_ms` from now. 0 never expires, and neither does a
  /// deadline of 2^40 ms (35 years) or more, which could overflow the clock.
  explicit CancelToken(u64 deadline_ms) {
    if (deadline_ms > 0 && deadline_ms < (u64{1} << 40)) {
      expiry_ = clock::now() + std::chrono::milliseconds(deadline_ms);
    }
  }

  /// True once the expiry has passed. Without a deadline this never
  /// reads the clock.
  bool cancelled() const {
    return expiry_ != clock::time_point::max() && clock::now() >= expiry_;
  }

  /// When the attempt expires; time_point::max() for never.
  clock::time_point expiry() const { return expiry_; }

 private:
  clock::time_point expiry_ = clock::time_point::max();
};

/// A chunk that exhausted its attempts or failed permanently.
struct ChunkFailure {
  u64 chunk = 0;
  ErrorKind kind = ErrorKind::kInternal;  ///< the final attempt's kind
  u32 attempts = 0;                       ///< attempts made, first included
  std::string message;                    ///< the final attempt's error
};

/// What happened during one run.
struct RunReport {
  u64 retries = 0;         ///< re-dispatched attempts (beyond the first)
  u64 timeouts = 0;        ///< attempts that failed with a kDeadline Error
  u64 worker_crashes = 0;  ///< attempts lost to an injected WorkerCrash
  std::vector<ChunkFailure> failed;  ///< terminally failed chunks, sorted

  bool all_succeeded() const { return failed.empty(); }
};

class ChunkRunner {
 public:
  /// `attempt` is 0-based; the function either returns (success) or throws
  /// (an invalid-argument or corrupt-data Error = permanent; anything else,
  /// WorkerCrash included = transient). It must leave its chunk re-runnable
  /// on failure.
  using ChunkFn =
      std::function<void(u64 chunk, u32 attempt, const CancelToken& cancel)>;

  ChunkRunner(ThreadPool& pool, RetryPolicy policy);

  /// Run chunks [0, n_chunks) through `fn` until each one has either
  /// succeeded or terminally failed. Never throws for chunk failures —
  /// they come back in the report for the caller's policy (strict/lenient)
  /// to apply.
  RunReport run(u64 n_chunks, const ChunkFn& fn);

 private:
  ThreadPool& pool_;
  RetryPolicy policy_;
};

}  // namespace ceresz::engine
