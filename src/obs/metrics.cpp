#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <thread>

#include "common/error.h"
#include "obs/log.h"

namespace ceresz::obs {

namespace detail {

std::size_t thread_shard() {
  thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return shard;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<f64> bounds) : bounds_(std::move(bounds)) {
  CERESZ_CHECK(!bounds_.empty(), "Histogram: need at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    CERESZ_CHECK(bounds_[i - 1] < bounds_[i],
                 "Histogram: bucket bounds must be strictly increasing");
  }
  counts_ = std::make_unique<std::atomic<u64>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::observe(f64 v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  u64 cur = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const u64 next = std::bit_cast<u64>(std::bit_cast<f64>(cur) + v);
    if (sum_bits_.compare_exchange_weak(cur, next,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
}

void Histogram::merge_bucket(std::size_t idx, u64 n) {
  CERESZ_CHECK(idx <= bounds_.size(), "Histogram: bucket index out of range");
  counts_[idx].fetch_add(n, std::memory_order_relaxed);
}

void Histogram::merge_sum(f64 sum) {
  u64 cur = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const u64 next = std::bit_cast<u64>(std::bit_cast<f64>(cur) + sum);
    if (sum_bits_.compare_exchange_weak(cur, next,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
}

std::vector<u64> Histogram::bucket_counts() const {
  std::vector<u64> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

f64 MetricsSnapshot::HistogramSample::quantile(f64 p) const {
  if (count == 0) return std::numeric_limits<f64>::quiet_NaN();
  p = std::clamp(p, 0.0, 1.0);
  const f64 target = p * static_cast<f64>(count);
  u64 cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const u64 before = cumulative;
    cumulative += counts[i];
    if (counts[i] == 0 || static_cast<f64>(cumulative) < target) continue;
    if (i >= bounds.size()) {
      // +Inf overflow bucket: no finite upper edge to interpolate to.
      return bounds.empty() ? std::numeric_limits<f64>::quiet_NaN()
                            : bounds.back();
    }
    const f64 lower = i == 0 ? 0.0 : bounds[i - 1];
    const f64 within =
        (target - static_cast<f64>(before)) / static_cast<f64>(counts[i]);
    return lower + within * (bounds[i] - lower);
  }
  return bounds.empty() ? std::numeric_limits<f64>::quiet_NaN()
                        : bounds.back();
}

u64 MetricsSnapshot::counter_value(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

f64 MetricsSnapshot::gauge_value(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<f64> bounds) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  } else {
    CERESZ_CHECK(it->second->bounds() == bounds,
                 "MetricsRegistry: histogram re-registered with different "
                 "bucket bounds");
  }
  return *it->second;
}

std::vector<f64> MetricsRegistry::default_seconds_buckets() {
  return {1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
          1e-1, 2e-1, 5e-1, 1.0,  2.0,  5.0,  10.0};
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramSample s;
    s.name = name;
    s.bounds = h->bounds();
    s.counts = h->bucket_counts();
    s.sum = h->sum();
    for (u64 c : s.counts) s.count += c;
    snap.histograms.push_back(std::move(s));
  }
  // std::map iteration is already name-sorted; keep that contract explicit.
  return snap;
}

void MetricsRegistry::accumulate(const MetricsSnapshot& snap) {
  for (const auto& c : snap.counters) counter(c.name).add(c.value);
  for (const auto& g : snap.gauges) gauge(g.name).set(g.value);
  for (const auto& h : snap.histograms) {
    Histogram& dst = histogram(h.name, h.bounds);
    CERESZ_CHECK(dst.bounds() == h.bounds,
                 "MetricsRegistry::accumulate: bucket bounds mismatch");
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] > 0) dst.merge_bucket(i, h.counts[i]);
    }
    dst.merge_sum(h.sum);
  }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

namespace {

std::string fmt_double(f64 v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string to_json(const MetricsSnapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, c.name);
    out += ": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    // JSON has no Inf/NaN literals; clamp them to null.
    const std::string v =
        std::isfinite(g.value) ? fmt_double(g.value) : "null";
    out += "    ";
    append_json_string(out, g.name);
    out += ": " + v;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, h.name);
    out += ": {\"buckets\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      const std::string le =
          i < h.bounds.size() ? fmt_double(h.bounds[i]) : "null";
      out += "{\"le\": " + le + ", \"count\": " +
             std::to_string(h.counts[i]) + "}";
    }
    out += "], \"sum\": " + fmt_double(h.sum) +
           ", \"count\": " + std::to_string(h.count) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& c : snap.counters) {
    out += "# TYPE " + c.name + " counter\n";
    out += c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snap.gauges) {
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name + " " + fmt_double(g.value) + "\n";
  }
  for (const auto& h : snap.histograms) {
    out += "# TYPE " + h.name + " histogram\n";
    u64 cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      const std::string le =
          i < h.bounds.size() ? fmt_double(h.bounds[i]) : "+Inf";
      out += h.name + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += h.name + "_sum " + fmt_double(h.sum) + "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

bool is_prometheus_path(std::string_view path) {
  constexpr std::string_view ext = ".prom";
  if (path.size() < ext.size()) return false;
  const std::string_view tail = path.substr(path.size() - ext.size());
  for (std::size_t i = 0; i < ext.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(tail[i])) != ext[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace ceresz::obs
