// Observability subsystem tests: registry snapshot consistency under
// concurrent writers (run these under TSan — scripts/run_sanitizer_tests.sh
// builds this binary), histogram bucket-edge semantics, trace-ring
// overflow accounting, and exporter validity (the JSON exporters are
// parsed back with a mini JSON parser; the Prometheus exporter is
// checked line-by-line against the text exposition grammar).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdlib>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine_stats.h"
#include "engine/parallel_engine.h"
#include "mapping/wafer_mapper.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wse/fabric.h"
#include "test_util.h"

namespace ceresz {
namespace {

// ---------------------------------------------------------------------------
// Mini JSON parser — just enough to validate and inspect exporter output.
// Numbers are parsed as f64, objects as name-sorted maps.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  f64 number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key: " << key;
    static const JsonValue null_value;
    return it == object.end() ? null_value : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  /// Parses the whole input; EXPECT-fails and returns null on error.
  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes after value");
    EXPECT_TRUE(ok_) << "JSON parse error at byte " << pos_ << ": " << error_;
    return ok_ ? v : JsonValue{};
  }

  bool ok() const { return ok_; }

 private:
  void fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      error_ = why;
    }
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    if (!ok_ || pos_ >= s_.size()) {
      fail("unexpected end of input");
      return {};
    }
    const char c = s_[pos_];
    JsonValue v;
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string();
      return v;
    }
    if (consume_literal("null")) return v;
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    consume('{');
    if (consume('}')) return v;
    do {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        fail("object key must be a string");
        return v;
      }
      std::string key = parse_string();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return v;
      }
      v.object.emplace(std::move(key), parse_value());
    } while (ok_ && consume(','));
    if (!consume('}')) fail("expected '}'");
    return v;
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    consume('[');
    if (consume(']')) return v;
    do {
      v.array.push_back(parse_value());
    } while (ok_ && consume(','));
    if (!consume(']')) fail("expected ']'");
    return v;
  }

  std::string parse_string() {
    std::string out;
    ++pos_;  // opening quote
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) break;
        switch (s_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u':
            pos_ += 4;  // \uXXXX — skip, control chars only in our output
            break;
          default: fail("unsupported escape"); return out;
        }
        ++pos_;
      } else {
        out += s_[pos_++];
      }
    }
    if (pos_ >= s_.size()) {
      fail("unterminated string");
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  JsonValue parse_number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a number");
      return v;
    }
    v.number = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Counters, gauges, snapshot consistency.

TEST(Counter, ConcurrentAddsAreExact) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test_total");
  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (u64 i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(reg.snapshot().counter_value("test_total"),
            kThreads * kPerThread);
}

TEST(Gauge, ConcurrentAddsAreExact) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("test_gauge");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.add(0.5);
    });
  }
  for (auto& w : workers) w.join();
  // The CAS loop makes add() lossless, and 0.5 sums exactly in binary.
  EXPECT_EQ(g.value(), 0.5 * kThreads * kPerThread);
  g.set(-3.25);
  EXPECT_EQ(g.value(), -3.25);
}

// Snapshots taken while writers are running must be internally
// consistent: monotone counter values across successive snapshots, and
// histogram count == sum of bucket counts in EVERY snapshot (the count
// is derived from the buckets, never read separately). Run under TSan.
TEST(MetricsRegistry, SnapshotConsistentUnderConcurrentWriters) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("writes_total");
  obs::Histogram& h =
      reg.histogram("lat_seconds", {0.001, 0.01, 0.1, 1.0});
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      u64 i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c.add();
        h.observe(0.0005 * static_cast<f64>((i + t) % 5000));
        ++i;
      }
    });
  }

  u64 prev_count = 0;
  u64 prev_hist = 0;
  for (int round = 0; round < 200; ++round) {
    const obs::MetricsSnapshot snap = reg.snapshot();
    const u64 now = snap.counter_value("writes_total");
    EXPECT_GE(now, prev_count) << "counter went backwards";
    prev_count = now;
    ASSERT_EQ(snap.histograms.size(), 1u);
    const auto& hs = snap.histograms[0];
    u64 bucket_sum = 0;
    for (u64 n : hs.counts) bucket_sum += n;
    EXPECT_EQ(hs.count, bucket_sum);
    EXPECT_GE(hs.count, prev_hist) << "histogram count went backwards";
    prev_hist = hs.count;
  }
  stop.store(true);
  for (auto& w : writers) w.join();

  // Quiescent: the snapshot is exact.
  const obs::MetricsSnapshot final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counter_value("writes_total"), c.value());
  EXPECT_EQ(final_snap.histograms[0].count,
            final_snap.counter_value("writes_total"));
}

TEST(MetricsRegistry, SnapshotSortedByName) {
  obs::MetricsRegistry reg;
  reg.counter("zeta_total");
  reg.counter("alpha_total");
  reg.counter("mid_total");
  reg.gauge("z_gauge");
  reg.gauge("a_gauge");
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha_total");
  EXPECT_EQ(snap.counters[1].name, "mid_total");
  EXPECT_EQ(snap.counters[2].name, "zeta_total");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].name, "a_gauge");
  EXPECT_EQ(snap.gauges[1].name, "z_gauge");
}

TEST(MetricsRegistry, HandlesAreStable) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("same_total");
  obs::Counter& b = reg.counter("same_total");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 = reg.histogram("h_seconds", {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram("h_seconds", {1.0, 2.0});
  EXPECT_EQ(&h1, &h2);
}

// ---------------------------------------------------------------------------
// Histogram bucket-edge semantics: inclusive upper bounds (`le`).

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("edges", {1.0, 2.0, 5.0});

  h.observe(1.0);                             // exactly on bound 0 -> bucket 0
  h.observe(std::nextafter(1.0, 2.0));        // just above -> bucket 1
  h.observe(2.0);                             // on bound 1 -> bucket 1
  h.observe(5.0);                             // on the last bound -> bucket 2
  h.observe(std::nextafter(5.0, 10.0));       // just above the last -> +Inf
  h.observe(-7.0);                            // below everything -> bucket 0
  h.observe(1e30);                            // way above -> +Inf

  const std::vector<u64> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + the +Inf overflow bucket
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 7u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum,
                   1.0 + std::nextafter(1.0, 2.0) + 2.0 + 5.0 +
                       std::nextafter(5.0, 10.0) - 7.0 + 1e30);
}

TEST(Histogram, DefaultSecondsBucketsStrictlyIncreasing) {
  const std::vector<f64> bounds =
      obs::MetricsRegistry::default_seconds_buckets();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_LE(bounds.front(), 1e-4);
  EXPECT_GE(bounds.back(), 10.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "at index " << i;
  }
}

TEST(MetricsRegistry, AccumulateFoldsSnapshots) {
  obs::MetricsRegistry per_run;
  per_run.counter("runs_total").add(2);
  per_run.gauge("threads").set(8.0);
  obs::Histogram& h = per_run.histogram("lat", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);  // +Inf bucket

  obs::MetricsRegistry serving;
  serving.counter("runs_total").add(1);
  serving.accumulate(per_run.snapshot());
  serving.accumulate(per_run.snapshot());

  const obs::MetricsSnapshot snap = serving.snapshot();
  EXPECT_EQ(snap.counter_value("runs_total"), 1u + 2u + 2u);  // counters add
  EXPECT_EQ(snap.gauge_value("threads"), 8.0);                // gauges set
  ASSERT_EQ(snap.histograms.size(), 1u);                      // created on demand
  const auto& hs = snap.histograms[0];
  ASSERT_EQ(hs.counts.size(), 3u);
  EXPECT_EQ(hs.counts[0], 2u);
  EXPECT_EQ(hs.counts[1], 2u);
  EXPECT_EQ(hs.counts[2], 2u);
  EXPECT_EQ(hs.count, 6u);
  EXPECT_DOUBLE_EQ(hs.sum, 2.0 * (0.5 + 1.5 + 99.0));
}

// ---------------------------------------------------------------------------
// Trace ring overflow: drop-OLDEST, drops counted, memory bounded.

TEST(TraceRing, OverflowDropsOldestAndCountsDrops) {
  obs::TraceRing ring(4);
  static const char* kNames[] = {"e0", "e1", "e2", "e3", "e4",
                                 "e5", "e6", "e7", "e8", "e9"};
  for (u64 i = 0; i < 10; ++i) {
    obs::TraceEvent ev;
    ev.name = kNames[i];
    ev.ts_ns = i;
    ring.push(ev);
  }
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<obs::TraceEvent> kept = ring.drain_copy();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(std::string_view(kept[i].name), kNames[6 + i]);  // newest 4
    EXPECT_EQ(kept[i].ts_ns, 6 + i);                           // oldest first
  }
}

TEST(Tracer, RingOverflowIsBoundedPerThread) {
  obs::Tracer tracer(/*ring_capacity=*/8);
  for (int i = 0; i < 100; ++i) {
    tracer.instant("tick", "test", "i", i);
  }
  EXPECT_EQ(tracer.events_recorded(), 100u);
  EXPECT_EQ(tracer.events_dropped(), 92u);
  const auto events = tracer.snapshot_events();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are the NEWEST eight (args 92..99).
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg1, static_cast<i64>(92 + i));
  }
  // The drop count is advertised in the exported file's metadata.
  const std::string json = tracer.chrome_trace_json();
  JsonValue root = JsonParser(json).parse();
  EXPECT_EQ(root.at("metadata").at("dropped_events").number, 92.0);
}

TEST(Tracer, ThreadsGetSeparateRings) {
  obs::Tracer tracer(/*ring_capacity=*/4);
  // Both threads hold their rings at once: a thread that had exited
  // would hand its ring to the other.
  std::barrier both_live(2);
  auto burst = [&] {
    for (int i = 0; i < 10; ++i) tracer.instant("t", "test");
    both_live.arrive_and_wait();
  };
  std::thread a(burst), b(burst);
  a.join();
  b.join();
  // 4 survivors per thread, 6 drops per thread — rings never share.
  EXPECT_EQ(tracer.rings(), 2u);
  EXPECT_EQ(tracer.events_recorded(), 20u);
  EXPECT_EQ(tracer.events_dropped(), 12u);
  EXPECT_EQ(tracer.snapshot_events().size(), 8u);
}

TEST(Tracer, AnExitedThreadHandsItsRingToTheNextThread) {
  obs::Tracer tracer(/*ring_capacity=*/8);
  u32 first_tid = 0;
  std::thread([&] {
    first_tid = tracer.thread_id();
    for (int i = 0; i < 3; ++i) tracer.instant("first", "test", "i", i);
  }).join();
  u32 second_tid = 0;
  std::thread([&] {
    second_tid = tracer.thread_id();
    tracer.instant("second", "test");
  }).join();
  EXPECT_EQ(tracer.rings(), 1u);
  EXPECT_EQ(second_tid, first_tid);
  auto count = [&](std::string_view name) {
    std::size_t n = 0;
    for (const obs::TraceEvent& ev : tracer.snapshot_events()) {
      n += name == ev.name;
    }
    return n;
  };
  // The first thread's events stay until the ring's next owner wraps it.
  EXPECT_EQ(count("first"), 3u);
  std::thread([&] {
    for (int i = 0; i < 8; ++i) tracer.instant("third", "test");
  }).join();
  EXPECT_EQ(tracer.rings(), 1u);
  EXPECT_EQ(count("first"), 0u);
  EXPECT_EQ(count("second"), 0u);
  EXPECT_EQ(count("third"), 8u);
}

/// 50 traced compress calls on a 2-thread engine: each call starts a
/// pool of 2 new worker threads.
void run_traced_engine_calls(obs::Tracer& tracer) {
  engine::EngineOptions opt;
  opt.threads = 2;
  opt.chunk_elems = 4096;
  opt.tracer = &tracer;
  const engine::ParallelEngine eng(opt);
  const std::vector<f32> data = test::smooth_signal(16 * 1024);
  for (int i = 0; i < 50; ++i) {
    eng.compress(data, core::ErrorBound::relative(1e-3));
  }
}

TEST(Tracer, RingsAreBoundedByLiveThreads) {
  obs::Tracer tracer(/*ring_capacity=*/256);
  run_traced_engine_calls(tracer);
  // The caller plus the 2 workers alive at once; each call's workers
  // reuse the rings the previous call's workers handed back.
  EXPECT_LE(tracer.rings(), 3u);
}

TEST(Tracer, ThreadNamesAreBoundedByRings) {
  obs::Tracer tracer(/*ring_capacity=*/256);
  run_traced_engine_calls(tracer);
  const JsonValue root = JsonParser(tracer.chrome_trace_json()).parse();
  std::size_t thread_names = 0;
  for (const JsonValue& e : root.at("traceEvents").array) {
    thread_names += e.at("name").str == "thread_name";
  }
  // Each pool names its 2 workers, and every pool's workers reuse the
  // same 2 rings, so the names overwrite each other.
  EXPECT_GT(thread_names, 0u);
  EXPECT_LE(thread_names, 2u);
  EXPECT_LE(thread_names, tracer.rings());
}

TEST(Tracer, SnapshotWhileRecordingSeesWholeEvents) {
  // Small rings so that writers lap the slots a reader is copying.
  obs::Tracer tracer(/*ring_capacity=*/64);
  std::atomic<int> started{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (i64 i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const i64 v = i * 4 + w;
        const u64 u = static_cast<u64>(v);
        tracer.record(obs::TraceEvent{"whole", "test", 'X', obs::kHostPid,
                                      0, u, u, "a", v, "b", v, u, u, u});
        if (i == 0) started.fetch_add(1);
      }
    });
  }
  while (started.load() < 4) std::this_thread::yield();
  u64 events_read = 0;
  u64 torn = 0;
  for (int round = 0; round < 200; ++round) {
    for (const obs::TraceEvent& ev : tracer.snapshot_events()) {
      const u64 v = static_cast<u64>(ev.arg1);
      torn += std::string_view(ev.name) != "whole" || ev.arg2 != ev.arg1 ||
              ev.ts_ns != v || ev.dur_ns != v || ev.trace_id != v ||
              ev.span_id != v || ev.parent_span_id != v;
      ++events_read;
    }
    if (round % 20 == 0) {
      const JsonValue root = JsonParser(tracer.chrome_trace_json()).parse();
      for (const JsonValue& e : root.at("traceEvents").array) {
        if (e.at("ph").str == "M") continue;
        torn += e.at("args").at("a").number != e.at("args").at("b").number;
      }
    }
  }
  stop = true;
  for (auto& t : writers) t.join();
  EXPECT_GT(events_read, 0u);
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(tracer.rings(), 4u);
}

TEST(SpanGuard, NullTracerIsNoop) {
  // Must not crash or dereference anything.
  obs::SpanGuard guard(nullptr, "noop", "test");
}

// ---------------------------------------------------------------------------
// Exporter validity.

TEST(Exporters, JsonExportParsesBack) {
  obs::MetricsRegistry reg;
  reg.counter("ceresz_engine_chunks_total").add(17);
  reg.gauge("ceresz_engine_threads").set(8.0);
  reg.gauge("ceresz_bad_gauge").set(std::numeric_limits<f64>::infinity());
  obs::Histogram& h =
      reg.histogram("ceresz_engine_chunk_seconds",
                    obs::MetricsRegistry::default_seconds_buckets());
  h.observe(0.002);
  h.observe(1e9);  // +Inf bucket

  const std::string json = obs::to_json(reg.snapshot());
  JsonParser parser(json);
  JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok());

  EXPECT_EQ(root.at("counters").at("ceresz_engine_chunks_total").number, 17.0);
  EXPECT_EQ(root.at("gauges").at("ceresz_engine_threads").number, 8.0);
  // Non-finite gauges have no JSON literal and are exported as null.
  EXPECT_EQ(root.at("gauges").at("ceresz_bad_gauge").kind,
            JsonValue::Kind::kNull);

  const JsonValue& hist =
      root.at("histograms").at("ceresz_engine_chunk_seconds");
  EXPECT_EQ(hist.at("count").number, 2.0);
  const std::vector<JsonValue>& buckets = hist.at("buckets").array;
  ASSERT_EQ(buckets.size(),
            obs::MetricsRegistry::default_seconds_buckets().size() + 1);
  // The overflow bucket has le == null and holds the 1e9 observation.
  EXPECT_EQ(buckets.back().at("le").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(buckets.back().at("count").number, 1.0);
  f64 total = 0.0;
  for (const JsonValue& b : buckets) total += b.at("count").number;
  EXPECT_EQ(total, 2.0);
}

TEST(Exporters, ChromeTraceParsesBackWithMicrosecondTimestamps) {
  obs::Tracer tracer;
  tracer.set_process_name(obs::kFabricPid, "wse-fabric");
  tracer.set_thread_name(obs::kFabricPid, 3, "pe[0,2]");
  obs::TraceEvent ev;
  ev.name = "chunk.compress";
  ev.cat = "engine";
  ev.ts_ns = 2500;
  ev.dur_ns = 1500;
  ev.arg1_name = "chunk";
  ev.arg1 = 7;
  tracer.record(ev);
  tracer.instant("chunk.retry", "engine");
  tracer.counter("queue_depth", 5);

  const std::string json = tracer.chrome_trace_json();
  JsonParser parser(json);
  JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok());

  const std::vector<JsonValue>& events = root.at("traceEvents").array;
  std::map<std::string, const JsonValue*> by_name;
  int metadata_events = 0;
  for (const JsonValue& e : events) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    // Every event carries the required trace-event keys.
    EXPECT_EQ(e.at("name").kind, JsonValue::Kind::kString);
    EXPECT_EQ(e.at("ph").kind, JsonValue::Kind::kString);
    EXPECT_EQ(e.at("pid").kind, JsonValue::Kind::kNumber);
    EXPECT_EQ(e.at("tid").kind, JsonValue::Kind::kNumber);
    if (e.at("ph").str == "M") {
      ++metadata_events;
    } else {
      EXPECT_EQ(e.at("ts").kind, JsonValue::Kind::kNumber);
      by_name[e.at("name").str] = &e;
    }
  }
  // Default host process name + the two names set above.
  EXPECT_EQ(metadata_events, 3);

  ASSERT_TRUE(by_name.count("chunk.compress"));
  const JsonValue& span = *by_name["chunk.compress"];
  EXPECT_EQ(span.at("ph").str, "X");
  EXPECT_EQ(span.at("ts").number, 2.5);   // ns -> us
  EXPECT_EQ(span.at("dur").number, 1.5);  // ns -> us
  EXPECT_EQ(span.at("args").at("chunk").number, 7.0);

  ASSERT_TRUE(by_name.count("chunk.retry"));
  EXPECT_EQ(by_name["chunk.retry"]->at("ph").str, "i");
  ASSERT_TRUE(by_name.count("queue_depth"));
  const JsonValue& counter = *by_name["queue_depth"];
  EXPECT_EQ(counter.at("ph").str, "C");
  EXPECT_EQ(counter.at("args").at("value").number, 5.0);
}

TEST(Exporters, PrometheusTextFormatIsWellFormed) {
  obs::MetricsRegistry reg;
  engine::declare_engine_metrics(reg);
  wse::declare_fabric_metrics(reg);
  mapping::declare_mapper_metrics(reg);
  reg.counter(engine::kMetricChunks).add(12);
  reg.gauge(engine::kMetricThreads).set(4.0);
  reg.histogram(engine::kMetricChunkSeconds,
                obs::MetricsRegistry::default_seconds_buckets())
      .observe(0.02);

  const std::string text = obs::to_prometheus(reg.snapshot());

  const std::regex type_line(
      R"(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))");
  const std::regex sample_line(
      R"([a-zA-Z_:][a-zA-Z0-9_:]*(_bucket\{le="[^"]+"\})? )"
      R"(-?(\d+(\.\d+)?([eE][-+]?\d+)?|[0-9.]+e[-+]?\d+|\+Inf))");
  std::istringstream is(text);
  std::string line;
  int type_lines = 0, sample_lines = 0;
  std::string prev_family;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_line)) << line;
      ++type_lines;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_line)) << line;
      ++sample_lines;
    }
  }
  EXPECT_GT(type_lines, 0);
  EXPECT_GT(sample_lines, type_lines);  // histograms emit several samples

  // One family per declared metric, each announced exactly once.
  const obs::MetricsSnapshot snap = reg.snapshot();
  const std::size_t families =
      snap.counters.size() + snap.gauges.size() + snap.histograms.size();
  EXPECT_EQ(static_cast<std::size_t>(type_lines), families);

  // Histogram buckets are cumulative and end at the family count.
  const std::regex bucket_re(
      R"(ceresz_engine_chunk_seconds_bucket\{le="[^"]+"\} (\d+))");
  u64 prev = 0;
  u64 last = 0;
  std::smatch m;
  std::istringstream is2(text);
  while (std::getline(is2, line)) {
    if (std::regex_match(line, m, bucket_re)) {
      const u64 v = std::strtoull(m[1].str().c_str(), nullptr, 10);
      EXPECT_GE(v, prev) << "bucket counts must be cumulative";
      prev = last = v;
    }
  }
  EXPECT_EQ(last, 1u);
  EXPECT_NE(text.find("ceresz_engine_chunk_seconds_count 1\n"),
            std::string::npos);
}

// Pre-declaration means an export advertises every family of every
// instrumented layer even before any work ran (the acceptance criterion
// for scraping: families never appear or vanish between scrapes).
TEST(Exporters, DeclaredFamiliesCoverEngineFabricAndMapper) {
  obs::MetricsRegistry reg;
  engine::declare_engine_metrics(reg);
  wse::declare_fabric_metrics(reg);
  mapping::declare_mapper_metrics(reg);
  const std::string text = obs::to_prometheus(reg.snapshot());

  for (const char* name :
       {engine::kMetricChunks, engine::kMetricRetries,
        engine::kMetricTimeouts, engine::kMetricWorkerCrashes,
        engine::kMetricQuarantined, engine::kMetricThreads,
        engine::kMetricWallSeconds,
        engine::kMetricChunkSeconds, wse::kMetricFabricTasks,
        wse::kMetricFabricSent, wse::kMetricFabricReceived,
        wse::kMetricFabricRelayed, wse::kMetricFabricBusyCycles,
        wse::kMetricFabricMakespan, mapping::kMetricMapperRuns,
        mapping::kMetricMapperBlocks, mapping::kMetricMapperMakespan,
        mapping::kMetricMapperThroughput}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + name + " "),
              std::string::npos)
        << "family not advertised: " << name;
  }
}

// ---------------------------------------------------------------------------
// Histogram snapshot quantiles: linear interpolation within the
// inclusive-le bucket that crosses p * count.

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("q_seconds", {1.0, 2.0, 4.0});
  h.observe(0.5);    // bucket 0 (le 1.0)
  h.observe(1.0);    // bucket 0 (inclusive edge)
  h.observe(1.5);    // bucket 1 (le 2.0)
  h.observe(2.0);    // bucket 1
  h.observe(100.0);  // +Inf overflow
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& hs = snap.histograms[0];
  ASSERT_EQ(hs.count, 5u);

  // target = p * count = 2.5 falls 0.25 into bucket 1's two samples.
  EXPECT_DOUBLE_EQ(hs.quantile(0.5), 1.25);
  // target = 1.0 is halfway through bucket 0 (lower bound 0).
  EXPECT_DOUBLE_EQ(hs.quantile(0.2), 0.5);
  // target exactly exhausts a bucket -> its upper edge.
  EXPECT_DOUBLE_EQ(hs.quantile(0.4), 1.0);
  EXPECT_DOUBLE_EQ(hs.quantile(0.8), 2.0);
  // Out-of-range p clamps.
  EXPECT_DOUBLE_EQ(hs.quantile(-1.0), hs.quantile(0.0));
}

TEST(Histogram, QuantileOverflowBucketClampsToLastFiniteBound) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("q_over", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(100.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto& hs = snap.histograms[0];
  // The +Inf bucket has no finite upper edge; the estimate saturates at
  // the last finite bound rather than inventing a value.
  EXPECT_DOUBLE_EQ(hs.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(hs.quantile(0.99), 4.0);
}

TEST(Histogram, QuantileOfEmptyHistogramIsNaN) {
  obs::MetricsRegistry reg;
  reg.histogram("q_empty", {1.0, 2.0});
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(std::isnan(snap.histograms[0].quantile(0.5)));
}

// ---------------------------------------------------------------------------
// Prometheus path detection (the --metrics-out format switch).

TEST(Exporters, PrometheusPathDetectionIsCaseInsensitive) {
  EXPECT_TRUE(obs::is_prometheus_path("metrics.prom"));
  EXPECT_TRUE(obs::is_prometheus_path("metrics.PROM"));
  EXPECT_TRUE(obs::is_prometheus_path("out/run1.Prom"));
  EXPECT_TRUE(obs::is_prometheus_path(".prom"));
  EXPECT_FALSE(obs::is_prometheus_path("metrics.json"));
  EXPECT_FALSE(obs::is_prometheus_path("prom"));
  EXPECT_FALSE(obs::is_prometheus_path("metrics.promx"));
  EXPECT_FALSE(obs::is_prometheus_path(""));
}

// ---------------------------------------------------------------------------
// Trace-drop export: ring overflow surfaces as a metrics counter, so a
// scraped run advertises its own trace truncation.

TEST(TraceMetrics, RingOverflowExportedAsDroppedCounter) {
  obs::MetricsRegistry reg;
  obs::declare_trace_metrics(reg);
  // Pre-declared at zero, and advertised even before any export.
  EXPECT_EQ(reg.snapshot().counter_value(obs::kMetricTraceDropped), 0u);
  EXPECT_NE(obs::to_prometheus(reg.snapshot())
                .find(std::string("# TYPE ") + obs::kMetricTraceDropped +
                      " counter"),
            std::string::npos);

  obs::Tracer tracer(/*ring_capacity=*/8);
  for (int i = 0; i < 100; ++i) tracer.instant("tick", "test");
  obs::export_trace_metrics(tracer, reg);
  EXPECT_EQ(reg.snapshot().counter_value(obs::kMetricTraceDropped), 92u);
  // Exporting the same tracer again adds only drops since the last one.
  obs::export_trace_metrics(tracer, reg);
  EXPECT_EQ(reg.snapshot().counter_value(obs::kMetricTraceDropped), 92u);

  // A clean tracer contributes nothing.
  obs::Tracer clean;
  clean.instant("t", "test");
  obs::export_trace_metrics(clean, reg);
  EXPECT_EQ(reg.snapshot().counter_value(obs::kMetricTraceDropped), 92u);
}

TEST(EngineStats, FromSnapshotReadsRegistryValues) {
  obs::MetricsRegistry reg;
  engine::declare_engine_metrics(reg);
  reg.counter(engine::kMetricChunks).add(9);
  reg.counter(engine::kMetricUncompressedBytes).add(4096);
  reg.counter(engine::kMetricCompressedBytes).add(1024);
  reg.counter(engine::kMetricRetries).add(3);
  reg.counter(engine::kMetricWorkerCrashes).add(1);
  reg.gauge(engine::kMetricThreads).set(4.0);
  reg.gauge(engine::kMetricWallSeconds).set(0.25);
  reg.gauge(engine::kMetricQueueHighWater).set(6.0);

  const engine::EngineStats s =
      engine::EngineStats::from_snapshot(reg.snapshot());
  EXPECT_EQ(s.chunks, 9u);
  EXPECT_EQ(s.uncompressed_bytes, 4096u);
  EXPECT_EQ(s.compressed_bytes, 1024u);
  EXPECT_EQ(s.retries, 3u);
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_EQ(s.threads, 4u);
  EXPECT_EQ(s.wall_seconds, 0.25);
  EXPECT_EQ(s.queue_high_water, 6u);
  // Missing metrics read as zero, never throw.
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_EQ(s.quarantined, 0u);
}

}  // namespace
}  // namespace ceresz
