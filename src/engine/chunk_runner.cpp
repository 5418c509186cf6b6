#include "engine/chunk_runner.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace ceresz::engine {

namespace {

using clock = std::chrono::steady_clock;

enum class Outcome : u8 {
  kSuccess,
  kFailure,
  kCrash,
};

/// Bad input or bad bytes: a retry would fail the same way.
bool permanent(ErrorKind kind) {
  return kind == ErrorKind::kInvalidArgument ||
         kind == ErrorKind::kCorruptData;
}

struct ChunkState {
  u32 attempts_started = 0;
  bool running = false;
  bool done = false;
  Outcome outcome = Outcome::kSuccess;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  clock::time_point started{};
  std::shared_ptr<CancelToken> cancel;
};

// All mutable run state lives behind one mutex: worker tasks append to
// `completions`, the watchdog cancels overdue attempts, and only the
// calling thread makes retry/failure decisions. Heap-allocated and
// shared with every task: a worker's final notify runs after it has
// released the mutex, so the calling thread can observe the completion
// and return from run() while that notify is still executing — each
// task's shared_ptr keeps the condition variable alive through it.
struct RunState {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ChunkState> states;
  std::deque<u64> completions;
};

}  // namespace

ChunkRunner::ChunkRunner(ThreadPool& pool, RetryPolicy policy)
    : pool_(pool), policy_(policy) {
  CERESZ_CHECK(policy_.max_attempts >= 1,
               "ChunkRunner: max_attempts must be at least 1");
}

RunReport ChunkRunner::run(u64 n_chunks, const ChunkFn& fn) {
  RunReport report;
  if (n_chunks == 0) return report;

  auto rs = std::make_shared<RunState>();
  rs->states.resize(n_chunks);
  std::multimap<clock::time_point, u64> retry_at;
  u64 resolved = 0;  // chunks that succeeded or terminally failed

  // One attempt, wrapped so that nothing but WorkerCrash ever escapes into
  // the pool — and WorkerCrash only after the outcome is recorded.
  auto make_task = [&](u64 c, u32 attempt,
                       std::shared_ptr<CancelToken> cancel) {
    return [&, rs, c, attempt, cancel = std::move(cancel)] {
      Outcome oc = Outcome::kFailure;
      ErrorKind kind = ErrorKind::kInternal;
      std::string message;
      try {
        fn(c, attempt, *cancel);
        oc = Outcome::kSuccess;
      } catch (const WorkerCrash&) {
        oc = Outcome::kCrash;
        message = "chunk " + std::to_string(c) + ": worker thread crashed";
      } catch (const Error& e) {
        kind = e.kind();
        message = e.what();
      } catch (const std::exception& e) {
        message = e.what();
      } catch (...) {
        message = "chunk attempt failed with an unknown error";
      }
      {
        std::lock_guard lock(rs->mu);
        ChunkState& st = rs->states[c];
        st.running = false;
        st.outcome = oc;
        st.kind = kind;
        st.message = std::move(message);
        rs->completions.push_back(c);
      }
      rs->cv.notify_all();
      if (oc == Outcome::kCrash) throw WorkerCrash{};
    };
  };

  // Start the next attempt at chunk `c`. Falls back to inline execution on
  // the calling thread once the pool has collapsed; while the pool is
  // merely saturated, helps drain it instead of blocking.
  auto dispatch = [&](u64 c) {
    u32 attempt = 0;
    auto cancel = std::make_shared<CancelToken>();
    {
      std::lock_guard lock(rs->mu);
      ChunkState& st = rs->states[c];
      attempt = st.attempts_started++;
      st.running = true;
      st.started = clock::now();
      st.cancel = cancel;
    }
    auto task = make_task(c, attempt, std::move(cancel));
    for (;;) {
      if (pool_.alive() == 0) {
        {
          std::lock_guard lock(rs->mu);
          ++report.fallback_chunks;
        }
        try {
          task();
        } catch (const WorkerCrash&) {
          // Inline execution borrows the caller's thread; nothing dies.
        }
        return;
      }
      if (pool_.try_submit(task)) return;
      if (!pool_.run_one_inline()) std::this_thread::yield();
    }
  };

  std::atomic<bool> stop_watchdog{false};
  std::thread watchdog;
  if (policy_.deadline_ms > 0) {
    // The watchdog must be its own thread: the calling thread can be busy
    // running attempts inline, and workers can all be stalled — neither
    // may be relied on to notice a deadline.
    watchdog = std::thread([&] {
      const auto deadline = std::chrono::milliseconds(policy_.deadline_ms);
      const auto tick =
          std::chrono::milliseconds(std::max<u64>(1, policy_.deadline_ms / 4));
      while (!stop_watchdog.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(tick);
        std::lock_guard lock(rs->mu);
        const auto now = clock::now();
        for (auto& st : rs->states) {
          if (st.running && st.cancel && !st.cancel->cancelled() &&
              now - st.started > deadline) {
            st.cancel->cancel();
            ++report.timeouts;
          }
        }
      }
    });
  }

  for (u64 c = 0; c < n_chunks; ++c) dispatch(c);

  std::unique_lock lock(rs->mu);
  while (resolved < n_chunks) {
    if (rs->completions.empty()) {
      if (!retry_at.empty()) {
        rs->cv.wait_until(lock, retry_at.begin()->first);
      } else {
        // Attempts are in flight; the timeout only guards against a pool
        // that collapsed with work still queued.
        rs->cv.wait_for(lock, std::chrono::milliseconds(10));
      }
    }

    while (!rs->completions.empty()) {
      const u64 c = rs->completions.front();
      rs->completions.pop_front();
      ChunkState& st = rs->states[c];
      if (st.done) continue;
      if (st.outcome == Outcome::kSuccess) {
        st.done = true;
        ++resolved;
        continue;
      }
      if (st.outcome == Outcome::kCrash) ++report.worker_crashes;
      if (permanent(st.kind) || st.attempts_started >= policy_.max_attempts) {
        st.done = true;
        ++resolved;
        report.failed.push_back({c, st.kind, st.attempts_started, st.message});
      } else {
        ++report.retries;
        const u32 k = std::min<u32>(st.attempts_started, 21) - 1;
        const u64 delay_us =
            std::min(policy_.backoff_cap_us, policy_.backoff_us << k);
        retry_at.emplace(clock::now() + std::chrono::microseconds(delay_us),
                         c);
      }
    }

    const auto now = clock::now();
    while (!retry_at.empty() && retry_at.begin()->first <= now) {
      const u64 c = retry_at.begin()->second;
      retry_at.erase(retry_at.begin());
      lock.unlock();
      dispatch(c);
      lock.lock();
    }

    if (pool_.alive() == 0) {
      // No worker will ever pop what is still queued; run it here.
      lock.unlock();
      while (pool_.run_one_inline()) {
      }
      lock.lock();
    }
  }
  lock.unlock();

  stop_watchdog.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();

  std::sort(
      report.failed.begin(), report.failed.end(),
      [](const ChunkFailure& a, const ChunkFailure& b) {
        return a.chunk < b.chunk;
      });
  return report;
}

}  // namespace ceresz::engine
