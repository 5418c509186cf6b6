// Fault-tolerant chunk execution on a ThreadPool.
//
// ChunkRunner::run() dispatches one attempt per chunk and shepherds every
// failure to a terminal state:
//   - transient failures (an internal or deadline ceresz::Error, any other
//     std::exception, injected throws, crashed workers) are retried with
//     capped exponential backoff, up to RetryPolicy::max_attempts
//     attempts per chunk;
//   - an invalid-argument or corrupt-data Error skips the retry ladder
//     entirely — the input or the bytes are wrong, which no retry fixes;
//   - with deadline_ms > 0 a watchdog thread cancels attempts that outlive
//     their deadline via the attempt's CancelToken (cooperative: chunk
//     functions poll it between blocks);
//   - a WorkerCrash kills its worker but not the run — survivors keep
//     draining, and once the pool collapses (alive() == 0) the calling
//     thread executes the remaining attempts inline, so the run always
//     terminates with every chunk either succeeded or failed.
//
// At most one attempt per chunk is ever in flight, so chunk functions may
// write their output slot in place; a retry observes the previous attempt
// fully finished. All retry decisions run on the calling thread — worker
// tasks only report outcomes — which keeps the policy single-threaded and
// easy to reason about.
#pragma once

#include <atomic>
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
  /// Per-attempt deadline in milliseconds; 0 disables the watchdog.
  u64 deadline_ms = 0;
};

/// Cooperative cancellation flag for one chunk attempt. The watchdog sets
/// it; the chunk function polls it between blocks and aborts by throwing
/// an Error of kind kDeadline.
class CancelToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
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
  u64 timeouts = 0;        ///< attempts cancelled by the watchdog
  u64 worker_crashes = 0;  ///< attempts that took their worker down
  u64 fallback_chunks = 0; ///< attempts run inline after pool collapse
  std::vector<ChunkFailure> failed;  ///< terminally failed chunks, sorted

  bool all_succeeded() const { return failed.empty(); }
};

class ChunkRunner {
 public:
  /// `attempt` is 0-based; the function either returns (success) or throws
  /// (an invalid-argument or corrupt-data Error = permanent; WorkerCrash;
  /// anything else = transient). It must leave its chunk re-runnable on
  /// failure.
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
