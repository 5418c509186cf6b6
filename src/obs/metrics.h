// MetricsRegistry: named counters, gauges, and fixed-bucket histograms
// shared by the engine, the WSE simulator, and the mapper.
//
// Design goals, in order:
//   - cheap concurrent updates: counters are sharded over cache-line-
//     padded atomics (uncontended fetch_add on the hot path, no locks);
//     gauges are a single atomic; histogram buckets are atomics.
//   - a consistent snapshot(): every metric is read through its atomics
//     at one point in time and returned as plain values, sorted by name,
//     so two exporters of the same snapshot always agree.
//   - two exporters over the same snapshot: JSON (machine-readable run
//     summaries) and the Prometheus text exposition format (scrapable).
//
// Naming convention (see docs/observability.md): prometheus-style
// `ceresz_<layer>_<what>[_total]`, e.g. `ceresz_engine_retries_total`.
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime; look them up once and keep the reference.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace ceresz::obs {

namespace detail {

/// One cache line per shard so concurrent writers never false-share.
struct alignas(64) PaddedAtomicU64 {
  std::atomic<u64> v{0};
};

/// Stable per-thread shard index (hash of the thread id).
std::size_t thread_shard();

}  // namespace detail

/// Monotonic counter. add() is wait-free on the calling thread's shard;
/// value() sums the shards (exact once writers are quiescent, a valid
/// momentary lower bound while they are not).
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  void add(u64 n = 1) {
    shards_[detail::thread_shard() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  u64 value() const {
    u64 sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  std::array<detail::PaddedAtomicU64, kShards> shards_;
};

/// Last-write-wins floating-point gauge.
class Gauge {
 public:
  void set(f64 v) {
    bits_.store(std::bit_cast<u64>(v), std::memory_order_relaxed);
  }

  void add(f64 delta) {
    u64 cur = bits_.load(std::memory_order_relaxed);
    for (;;) {
      const u64 next = std::bit_cast<u64>(std::bit_cast<f64>(cur) + delta);
      if (bits_.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
        return;
      }
    }
  }

  f64 value() const {
    return std::bit_cast<f64>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<u64> bits_{0};
};

/// Fixed-bucket histogram with inclusive upper bounds (Prometheus `le`
/// semantics): observe(v) lands in the first bucket whose bound >= v,
/// or the implicit +Inf overflow bucket. The per-snapshot count is
/// derived from the bucket counts, so count == sum(buckets) always.
class Histogram {
 public:
  explicit Histogram(std::vector<f64> bounds);

  void observe(f64 v);

  /// Bulk-merge: add `n` observations directly to bucket `idx`
  /// (bounds().size() = the +Inf overflow bucket) and `sum` to the
  /// running total. Used by MetricsRegistry::accumulate.
  void merge_bucket(std::size_t idx, u64 n);
  void merge_sum(f64 sum);

  const std::vector<f64>& bounds() const { return bounds_; }

  /// Per-bucket counts; one extra trailing slot for +Inf.
  std::vector<u64> bucket_counts() const;

  f64 sum() const {
    return std::bit_cast<f64>(sum_bits_.load(std::memory_order_relaxed));
  }

 private:
  std::vector<f64> bounds_;  // strictly increasing
  std::unique_ptr<std::atomic<u64>[]> counts_;  // bounds_.size() + 1
  std::atomic<u64> sum_bits_{0};
};

/// Point-in-time values of every metric in a registry, sorted by name.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    u64 value = 0;
  };
  struct GaugeSample {
    std::string name;
    f64 value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::vector<f64> bounds;
    std::vector<u64> counts;  ///< per bucket, +Inf overflow last
    f64 sum = 0.0;
    u64 count = 0;            ///< sum of `counts`

    /// Quantile estimate (p in [0, 1]) by linear interpolation within
    /// the inclusive-le buckets: the p*count-th observation is located
    /// in its bucket and placed proportionally between the bucket's
    /// lower and upper bound (first bucket's lower bound is 0). A
    /// quantile landing in the +Inf overflow bucket reports the last
    /// finite bound. NaN when the histogram is empty.
    f64 quantile(f64 p) const;
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Value of a named counter, 0 when absent.
  u64 counter_value(std::string_view name) const;

  /// Value of a named gauge, 0.0 when absent.
  f64 gauge_value(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference stays valid for the
  /// registry's lifetime. Creating is mutex-protected (do it once per
  /// run, not per update); updating through the handle is lock-free.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` must be strictly increasing; an existing histogram keeps
  /// its original bounds (they must match).
  Histogram& histogram(std::string_view name, std::vector<f64> bounds);

  /// Latency buckets in seconds: 100us .. 10s, roughly 1-2-5 spaced.
  static std::vector<f64> default_seconds_buckets();

  MetricsSnapshot snapshot() const;

  /// Fold a snapshot into this registry: counters add, gauges set,
  /// histograms merge bucket-wise (created on demand with the
  /// snapshot's bounds). Used to roll per-run registries up into a
  /// long-lived serving registry.
  void accumulate(const MetricsSnapshot& snap);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Exporters (both render the same snapshot; see docs/observability.md).
std::string to_json(const MetricsSnapshot& snap);
std::string to_prometheus(const MetricsSnapshot& snap);

/// True when `path` names a Prometheus text export: a case-insensitive
/// ".prom" extension (".prom", ".PROM", ".Prom", ...). Everything else
/// gets JSON. Used by the CLIs' --metrics-out handling.
bool is_prometheus_path(std::string_view path);

}  // namespace ceresz::obs
