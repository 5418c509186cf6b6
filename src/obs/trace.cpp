#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/timer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace ceresz::obs {

namespace detail {

/// The tracer's rings, every one ever allocated, and the free list of
/// those whose thread has exited. Shared with the thread-local caches
/// through weak references, so a thread that outlives the tracer skips
/// the hand-back.
struct TraceRingSet {
  explicit TraceRingSet(std::size_t ring_capacity)
      : capacity(ring_capacity) {}

  /// A free ring if there is one, else a new one whose tid is its
  /// 1-based index.
  TraceRing* acquire() {
    std::lock_guard lock(mu);
    if (!free.empty()) {
      TraceRing* ring = free.back();
      free.pop_back();
      return ring;
    }
    rings.push_back(std::make_unique<TraceRing>(
        capacity, static_cast<u32>(rings.size() + 1)));
    return rings.back().get();
  }

  /// Rings are never freed before the set, so readers may use these
  /// pointers after the lock is dropped.
  std::vector<const TraceRing*> all() const {
    std::lock_guard lock(mu);
    std::vector<const TraceRing*> out;
    out.reserve(rings.size());
    for (const auto& r : rings) out.push_back(r.get());
    return out;
  }

  const std::size_t capacity;
  mutable std::mutex mu;
  std::vector<std::unique_ptr<TraceRing>> rings;
  std::vector<TraceRing*> free;
};

}  // namespace detail

namespace {

std::atomic<u64> g_next_tracer_id{1};

/// The calling thread's ring in each tracer it has recorded into.
/// Entries for dead tracers are harmless: their unique ids are never
/// issued again, so a stale ring pointer can never match a lookup.
struct ThreadRings {
  struct Entry {
    u64 tracer_id = 0;
    TraceRing* ring = nullptr;
    std::weak_ptr<detail::TraceRingSet> set;
  };

  /// Thread exit: hand each ring back to its tracer, if still alive.
  ~ThreadRings() {
    for (const Entry& e : entries) {
      if (const auto set = e.set.lock()) {
        std::lock_guard lock(set->mu);
        set->free.push_back(e.ring);
      }
    }
  }

  std::vector<Entry> entries;
};
thread_local ThreadRings g_thread_rings;

/// `s` as a quoted JSON string.
std::string quoted(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

/// Trace-event timestamps are microseconds (doubles).
std::string fmt_us(u64 ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<f64>(ns) / 1000.0);
  return buf;
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity, u32 tid)
    : capacity_(capacity), tid_(tid) {
  CERESZ_CHECK(capacity >= 1, "TraceRing: capacity must be at least 1");
  slots_ = std::make_unique<Slot[]>(capacity);
}

std::vector<TraceEvent> TraceRing::drain_copy() const {
  const u64 n = pushed();
  const u64 start = n > capacity_ ? n - capacity_ : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(n - start));
  for (u64 k = start; k < n; ++k) {
    const Slot& s = slots_[k % capacity_];
    const u64 whole = 2 * k + 2;
    if (s.seq.load(std::memory_order_acquire) != whole) continue;
    u64 w[kWords];
    // Acquire: if any word comes from a later lap, the sequence check
    // below sees that lap's odd number (or a later one).
    for (std::size_t i = 0; i < kWords; ++i) {
      w[i] = s.words[i].load(std::memory_order_acquire);
    }
    if (s.seq.load(std::memory_order_relaxed) != whole) continue;
    TraceEvent ev;
    std::memcpy(&ev, w, sizeof(w));
    out.push_back(ev);
  }
  return out;
}

Tracer::Tracer(std::size_t ring_capacity)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_ns_(now_ns()),
      rings_(std::make_shared<detail::TraceRingSet>(ring_capacity)) {
  CERESZ_CHECK(ring_capacity >= 1, "Tracer: ring capacity must be >= 1");
  set_process_name(kHostPid, "ceresz host");
}

u64 Tracer::now_rel_ns() const { return now_ns() - epoch_ns_; }

TraceRing& Tracer::local_ring() {
  std::vector<ThreadRings::Entry>& entries = g_thread_rings.entries;
  for (const ThreadRings::Entry& e : entries) {
    if (e.tracer_id == id_) return *e.ring;
  }
  std::erase_if(entries, [](const ThreadRings::Entry& e) {
    return e.set.expired();
  });
  entries.push_back({id_, rings_->acquire(), rings_});
  return *entries.back().ring;
}

u32 Tracer::thread_id() { return local_ring().tid(); }

std::size_t Tracer::rings() const { return rings_->all().size(); }

void Tracer::record(TraceEvent ev) {
  TraceRing& ring = local_ring();
  if (ev.tid == 0) ev.tid = ring.tid();
  if (ev.trace_id == 0) {
    // Inherit the thread's ambient distributed-trace context so engine
    // chunk spans, pool task wrappers, and fabric band spans are
    // attributable to the request that caused them.
    const TraceContext& ctx = current_trace_context();
    if (ctx.active()) {
      ev.trace_id = ctx.trace_id;
      if (ev.parent_span_id == 0) ev.parent_span_id = ctx.span_id;
    }
  }
  ring.push(ev);
}

void Tracer::instant(const char* name, const char* cat,
                     const char* arg1_name, i64 arg1) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'i';
  ev.ts_ns = now_rel_ns();
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  record(ev);
}

void Tracer::counter(const char* name, i64 value) {
  TraceEvent ev;
  ev.name = name;
  ev.phase = 'C';
  ev.ts_ns = now_rel_ns();
  ev.arg1_name = "value";
  ev.arg1 = value;
  record(ev);
}

void Tracer::set_process_name(u32 pid, std::string name) {
  std::lock_guard lock(mu_);
  process_names_[pid] = std::move(name);
}

void Tracer::set_thread_name(u32 pid, u32 tid, std::string name) {
  std::lock_guard lock(mu_);
  thread_names_[{pid, tid}] = std::move(name);
}

u64 Tracer::events_recorded() const {
  u64 n = 0;
  for (const TraceRing* r : rings_->all()) n += r->pushed();
  return n;
}

u64 Tracer::events_dropped() const {
  u64 n = 0;
  for (const TraceRing* r : rings_->all()) n += r->dropped();
  return n;
}

std::vector<TraceEvent> Tracer::snapshot_events() const {
  std::vector<TraceEvent> all;
  for (const TraceRing* r : rings_->all()) {
    const std::vector<TraceEvent> evs = r->drain_copy();
    all.insert(all.end(), evs.begin(), evs.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return all;
}

std::string Tracer::chrome_trace_json() const {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot_events();
  std::map<u32, std::string> process_names;
  std::map<std::pair<u32, u32>, std::string> thread_names;
  {
    std::lock_guard lock(mu_);
    process_names = process_names_;
    thread_names = thread_names_;
  }

  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (const auto& [pid, name] : process_names) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":" << quoted(name) << "}}";
  }
  for (const auto& [key, name] : thread_names) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first
       << ",\"tid\":" << key.second << ",\"args\":{\"name\":"
       << quoted(name) << "}}";
  }
  for (const TraceEvent& ev : events) {
    sep();
    os << "{\"name\":" << quoted(ev.name) << ",\"cat\":"
       << quoted(*ev.cat ? ev.cat : "default") << ",\"ph\":\""
       << ev.phase << "\",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid
       << ",\"ts\":" << fmt_us(ev.ts_ns);
    if (ev.phase == 'X') os << ",\"dur\":" << fmt_us(ev.dur_ns);
    if (ev.phase == 'i') os << ",\"s\":\"t\"";
    if (ev.arg1_name || ev.arg2_name || ev.trace_id != 0 ||
        ev.span_id != 0 || ev.parent_span_id != 0) {
      os << ",\"args\":{";
      bool first_arg = true;
      auto arg_sep = [&] {
        if (!first_arg) os << ",";
        first_arg = false;
      };
      if (ev.arg1_name) {
        arg_sep();
        os << quoted(ev.arg1_name) << ":" << ev.arg1;
      }
      if (ev.arg2_name) {
        arg_sep();
        os << quoted(ev.arg2_name) << ":" << ev.arg2;
      }
      if (ev.trace_id != 0) {
        arg_sep();
        os << "\"trace_id\":" << ev.trace_id;
      }
      if (ev.span_id != 0) {
        arg_sep();
        os << "\"span_id\":" << ev.span_id;
      }
      if (ev.parent_span_id != 0) {
        arg_sep();
        os << "\"parent_span_id\":" << ev.parent_span_id;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{"
     << "\"dropped_events\":" << events_dropped() << "}}\n";
}

void declare_trace_metrics(MetricsRegistry& reg) {
  reg.counter(kMetricTraceDropped);
}

void export_trace_metrics(Tracer& tracer, MetricsRegistry& reg) {
  // Claim the range (exported, dropped] so that concurrent exports (a
  // scrape racing the shutdown flush) never count a drop twice.
  Counter& counter = reg.counter(kMetricTraceDropped);
  const u64 dropped = tracer.events_dropped();
  u64 exported = tracer.drops_exported_.load(std::memory_order_relaxed);
  while (exported < dropped &&
         !tracer.drops_exported_.compare_exchange_weak(
             exported, dropped, std::memory_order_relaxed)) {
  }
  if (exported < dropped) counter.add(dropped - exported);
}

}  // namespace ceresz::obs
