#include "engine/chunk_runner.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "engine/fault_injection.h"

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

/// How one attempt ended, as its task reports it.
struct Completion {
  u64 chunk = 0;
  Outcome outcome = Outcome::kFailure;
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
};

// Worker tasks append completions under the mutex; only the calling
// thread reads them and makes retry/failure decisions. Heap-allocated and
// shared with every task: a worker's final notify runs after it has
// released the mutex, so the calling thread can observe the completion
// and return from run() while that notify is still executing — each
// task's shared_ptr keeps the condition variable alive through it.
struct RunState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Completion> completions;
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
  std::vector<u32> attempts(n_chunks, 0);  // started per chunk; caller-only
  std::multimap<clock::time_point, u64> retry_at;
  u64 resolved = 0;  // chunks that succeeded or terminally failed

  // One attempt at chunk `c`. Its deadline counts from when the task is
  // made, so time spent queued counts against it. The task catches
  // everything — an injected WorkerCrash included — so nothing escapes
  // into the pool.
  auto make_task = [&](u64 c, u32 attempt) {
    return [&fn, rs, c, attempt, cancel = CancelToken(policy_.deadline_ms)] {
      Completion done;
      done.chunk = c;
      try {
        fn(c, attempt, cancel);
        done.outcome = Outcome::kSuccess;
      } catch (const WorkerCrash&) {
        done.outcome = Outcome::kCrash;
        done.message = "chunk " + std::to_string(c) + ": worker crashed";
      } catch (const Error& e) {
        done.kind = e.kind();
        done.message = e.what();
      } catch (const std::exception& e) {
        done.message = e.what();
      } catch (...) {
        done.message = "chunk attempt failed with an unknown error";
      }
      {
        std::lock_guard lock(rs->mu);
        rs->completions.push_back(std::move(done));
      }
      rs->cv.notify_all();
    };
  };

  // Start the next attempt at chunk `c`. While the pool is saturated, help
  // drain it instead of blocking; each try makes a fresh task, so the time
  // spent draining does not count against this attempt's deadline.
  auto dispatch = [&](u64 c) {
    const u32 attempt = attempts[c]++;
    while (!pool_.try_submit(make_task(c, attempt))) {
      if (!pool_.run_one_inline()) std::this_thread::yield();
    }
  };

  for (u64 c = 0; c < n_chunks; ++c) dispatch(c);

  std::unique_lock lock(rs->mu);
  const auto completed = [&] { return !rs->completions.empty(); };
  while (resolved < n_chunks) {
    if (retry_at.empty()) {
      rs->cv.wait(lock, completed);
    } else {
      rs->cv.wait_until(lock, retry_at.begin()->first, completed);
    }

    while (!rs->completions.empty()) {
      Completion done = std::move(rs->completions.front());
      rs->completions.pop_front();
      if (done.outcome == Outcome::kSuccess) {
        ++resolved;
        continue;
      }
      const u64 c = done.chunk;
      if (done.outcome == Outcome::kCrash) ++report.worker_crashes;
      if (done.kind == ErrorKind::kDeadline) ++report.timeouts;
      if (permanent(done.kind) || attempts[c] >= policy_.max_attempts) {
        ++resolved;
        report.failed.push_back(
            {c, done.kind, attempts[c], std::move(done.message)});
      } else {
        ++report.retries;
        const u32 k = std::min<u32>(attempts[c], 21) - 1;
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
  }
  lock.unlock();

  std::sort(
      report.failed.begin(), report.failed.end(),
      [](const ChunkFailure& a, const ChunkFailure& b) {
        return a.chunk < b.chunk;
      });
  return report;
}

}  // namespace ceresz::engine
