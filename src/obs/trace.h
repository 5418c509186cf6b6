// Tracer: RAII scoped spans and instant/counter events recorded into
// per-thread ring buffers, exported as Chrome trace-event JSON (open the
// file in Perfetto or chrome://tracing). The tracer is the process's one
// span store: the live /tracez endpoint (obs/telemetry.h) renders from
// the same rings the trace file is written from.
//
// Hot path: recording an event is one index increment and a run of
// word stores into the calling thread's own ring — no locks, no
// allocation (event names are static strings; numeric context travels
// in two typed args). A full ring drops its OLDEST event and counts it.
//
// Memory is bounded by the peak number of LIVE recording threads: a
// thread takes a ring when it first records and hands it back when it
// exits, for the next new thread to reuse (old events stay until the
// new owner wraps the ring). A ring's tid is thus a track that
// successive threads share, never at overlapping times.
//
// Disabled overhead: every instrumentation site takes an `obs::Tracer*`
// and does nothing when it is null — SpanGuard then skips even the
// clock read — so a build running without a tracer pays one pointer
// test per site.
//
// Clocks: host events are stamped with now_ns() (common/timer.h)
// relative to the tracer's construction. The WSE simulator records on a
// VIRTUAL clock instead — simulated cycles, exported under its own
// process id (kFabricPid) at 1 cycle == 1 us of trace time — so a
// single file shows wall-clock host work next to a Fig. 10-style
// per-PE cycle timeline.
//
// Readers (snapshot_events, chrome_trace_json, events_*) may run while
// threads record; they see whole events only.
#pragma once

#include <atomic>
#include <cstring>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace ceresz::obs {

class MetricsRegistry;

/// Trace process ids: host wall-clock events vs the simulator's virtual
/// cycle timeline.
inline constexpr u32 kHostPid = 1;
inline constexpr u32 kFabricPid = 2;

/// Ring-overflow events (oldest-dropped) across all recording threads,
/// exported so a truncated trace is detectable from metrics alone.
inline constexpr const char* kMetricTraceDropped =
    "ceresz_obs_trace_dropped_total";

/// One trace event. Names/categories must be string literals (or
/// otherwise outlive the tracer); per-event numbers go in the args.
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  char phase = 'X';   ///< 'X' complete, 'i' instant, 'C' counter
  u32 pid = kHostPid;
  u32 tid = 0;        ///< 0 = stamp with the recording thread's id
  u64 ts_ns = 0;      ///< relative to the tracer epoch (host) or virtual
  u64 dur_ns = 0;     ///< 'X' only
  const char* arg1_name = nullptr;
  i64 arg1 = 0;
  const char* arg2_name = nullptr;
  i64 arg2 = 0;
  // Distributed-trace identity (obs/trace_context.h). A zero trace_id
  // is filled from the recording thread's ambient context by record();
  // span_id is only set on spans that other spans reference (client
  // attempts, server request roots). Exported into the Chrome-trace
  // args object when nonzero.
  u64 trace_id = 0;
  u64 span_id = 0;
  u64 parent_span_id = 0;
};

/// Single-writer ring buffer of TraceEvents; any thread may read while
/// the writer pushes. A slot's sequence number is 2n+1 while lap n's
/// words are stored and 2n+2 once they are whole, so a reader can tell
/// a slot that was overwritten under it.
class TraceRing {
 public:
  /// `tid`: the track id stamped on events that do not carry one.
  explicit TraceRing(std::size_t capacity, u32 tid = 0);

  void push(const TraceEvent& ev) {
    u64 w[kWords];
    std::memcpy(w, &ev, sizeof(w));
    const u64 n = count_.load(std::memory_order_relaxed);
    Slot& s = slots_[n % capacity_];
    s.seq.store(2 * n + 1, std::memory_order_relaxed);
    // Release: a reader that loads any of these words also sees the
    // odd sequence number stored above.
    for (std::size_t i = 0; i < kWords; ++i) {
      s.words[i].store(w[i], std::memory_order_release);
    }
    s.seq.store(2 * n + 2, std::memory_order_release);
    count_.store(n + 1, std::memory_order_release);
  }

  u32 tid() const { return tid_; }

  /// Events ever pushed (monotonic).
  u64 pushed() const { return count_.load(std::memory_order_acquire); }

  /// Events overwritten because the ring was full (drop-oldest).
  u64 dropped() const {
    const u64 n = pushed();
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// Surviving events, oldest first. Safe against a concurrent push:
  /// events pushed after the call began may be missing, and a slot
  /// overwritten during the copy is skipped.
  std::vector<TraceEvent> drain_copy() const;

 private:
  static_assert(std::is_trivially_copyable_v<TraceEvent> &&
                sizeof(TraceEvent) % sizeof(u64) == 0);
  static constexpr std::size_t kWords = sizeof(TraceEvent) / sizeof(u64);

  struct Slot {
    std::atomic<u64> seq{0};
    std::atomic<u64> words[kWords];
  };

  const std::size_t capacity_;
  const u32 tid_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<u64> count_{0};
};

namespace detail {
struct TraceRingSet;  // the tracer's rings and free list (trace.cpp)
}  // namespace detail

class Tracer {
 public:
  /// `ring_capacity`: events retained per live recording thread.
  explicit Tracer(std::size_t ring_capacity = std::size_t{1} << 16);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Nanoseconds since this tracer was constructed (host clock).
  u64 now_rel_ns() const;

  /// Convert an absolute now_ns() reading into this tracer's relative
  /// timeline (clamped to 0 for readings that predate the tracer). Lets
  /// callers stamp spans from timestamps captured elsewhere, e.g. a
  /// request's arrival time captured before the span's name is known.
  u64 to_rel_ns(u64 abs_ns) const {
    return abs_ns > epoch_ns_ ? abs_ns - epoch_ns_ : 0;
  }

  /// Id of the calling thread's ring within this tracer (>= 1). Threads
  /// that record one after another may share it; live threads never do.
  u32 thread_id();

  /// Rings allocated: the peak number of threads holding one at once.
  std::size_t rings() const;

  /// Record an event. A zero tid is replaced by the calling thread's
  /// id; ts/dur are taken as given (SpanGuard fills them for you).
  void record(TraceEvent ev);

  /// Instant event ('i') stamped now on the calling thread.
  void instant(const char* name, const char* cat,
               const char* arg1_name = nullptr, i64 arg1 = 0);

  /// Counter sample ('C') stamped now; rendered as a counter track.
  void counter(const char* name, i64 value);

  /// Display names for the trace viewer (cold path, mutex-protected).
  void set_process_name(u32 pid, std::string name);
  void set_thread_name(u32 pid, u32 tid, std::string name);

  u64 events_recorded() const;
  u64 events_dropped() const;

  /// All surviving events, ts-sorted.
  std::vector<TraceEvent> snapshot_events() const;

  /// Chrome trace-event JSON (the "JSON object format": traceEvents +
  /// metadata).
  std::string chrome_trace_json() const;
  void write_chrome_trace(std::ostream& os) const;

 private:
  friend void export_trace_metrics(Tracer& tracer, MetricsRegistry& reg);

  TraceRing& local_ring();

  const u64 id_;        ///< globally unique, for the thread-local cache
  const u64 epoch_ns_;
  const std::shared_ptr<detail::TraceRingSet> rings_;

  mutable std::mutex mu_;  ///< guards the display names
  std::map<u32, std::string> process_names_;
  std::map<std::pair<u32, u32>, std::string> thread_names_;
  std::atomic<u64> drops_exported_{0};  ///< already in a registry
};

/// Pre-create the tracer metric families in `reg` at zero.
void declare_trace_metrics(MetricsRegistry& reg);

/// Add the tracer's drops since its previous export into `reg` as
/// `ceresz_obs_trace_dropped_total`. Safe to call on every scrape and
/// again at shutdown: each drop is counted once.
void export_trace_metrics(Tracer& tracer, MetricsRegistry& reg);

/// RAII scoped span: records one complete ('X') event covering its own
/// lifetime. Null-tracer-safe (does nothing, reads no clock).
class SpanGuard {
 public:
  explicit SpanGuard(Tracer* t, const char* name, const char* cat = "",
                     const char* arg1_name = nullptr, i64 arg1 = 0,
                     const char* arg2_name = nullptr, i64 arg2 = 0)
      : t_(t) {
    if (!t_) return;
    ev_.name = name;
    ev_.cat = cat;
    ev_.arg1_name = arg1_name;
    ev_.arg1 = arg1;
    ev_.arg2_name = arg2_name;
    ev_.arg2 = arg2;
    ev_.ts_ns = t_->now_rel_ns();
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  ~SpanGuard() {
    if (!t_) return;
    ev_.dur_ns = t_->now_rel_ns() - ev_.ts_ns;
    t_->record(ev_);
  }

 private:
  Tracer* t_;
  TraceEvent ev_{};
};

}  // namespace ceresz::obs
