// Metrics surface of the parallel engine.
//
// Since the observability subsystem landed, the single source of truth
// for every scalar here is the run's obs::MetricsRegistry (the engine
// increments registry counters while it works); EngineStats is a thin
// per-run VIEW materialized from a registry snapshot by from_snapshot(),
// kept as a plain struct so existing callers and tests are untouched.
// Long-lived serving registries receive the same counters via
// EngineOptions::metrics; docs/observability.md lists the names.
#pragma once

#include <vector>

#include "common/types.h"
#include "core/stream_codec.h"
#include "obs/metrics.h"

namespace ceresz::engine {

/// Canonical engine metric names (Prometheus families). The fault
/// counters mirror docs/robustness.md terminology one-to-one.
inline constexpr const char* kMetricChunks = "ceresz_engine_chunks_total";
inline constexpr const char* kMetricUncompressedBytes =
    "ceresz_engine_uncompressed_bytes_total";
inline constexpr const char* kMetricCompressedBytes =
    "ceresz_engine_compressed_bytes_total";
inline constexpr const char* kMetricRetries = "ceresz_engine_retries_total";
inline constexpr const char* kMetricTimeouts = "ceresz_engine_timeouts_total";
inline constexpr const char* kMetricWorkerCrashes =
    "ceresz_engine_worker_crashes_total";
inline constexpr const char* kMetricQuarantined =
    "ceresz_engine_quarantined_total";
inline constexpr const char* kMetricThreads = "ceresz_engine_threads";
inline constexpr const char* kMetricQueueHighWater =
    "ceresz_engine_queue_high_water";
inline constexpr const char* kMetricWallSeconds =
    "ceresz_engine_wall_seconds";
inline constexpr const char* kMetricBusySeconds =
    "ceresz_engine_worker_busy_seconds";
inline constexpr const char* kMetricChunkSeconds =
    "ceresz_engine_chunk_seconds";

struct EngineStats {
  u32 threads = 1;
  u64 chunks = 0;
  u64 uncompressed_bytes = 0;
  u64 compressed_bytes = 0;
  f64 wall_seconds = 0.0;

  /// Seconds each worker spent executing chunk tasks.
  std::vector<f64> worker_busy_seconds;

  /// Largest backlog the bounded work queue ever reached.
  u64 queue_high_water = 0;

  // Fault-tolerance counters (all zero on a healthy run).
  u64 retries = 0;         ///< chunk attempts re-dispatched after a failure
  u64 timeouts = 0;        ///< attempts that outlived their deadline
  u64 worker_crashes = 0;  ///< attempts lost to an injected worker crash
  u64 quarantined = 0;     ///< chunks that terminally failed and were
                           ///< zero-filled (lenient decompression only)

  /// Per-block statistics merged across all chunks (compression runs
  /// only; zeroed for decompression).
  core::StreamStats stream;

  /// Materialize the scalar fields from a registry snapshot (the
  /// per-worker busy vector and per-block stream stats are not registry
  /// metrics; the engine fills those separately).
  static EngineStats from_snapshot(const obs::MetricsSnapshot& snap) {
    EngineStats s;
    s.threads = static_cast<u32>(snap.gauge_value(kMetricThreads));
    s.chunks = snap.counter_value(kMetricChunks);
    s.uncompressed_bytes = snap.counter_value(kMetricUncompressedBytes);
    s.compressed_bytes = snap.counter_value(kMetricCompressedBytes);
    s.wall_seconds = snap.gauge_value(kMetricWallSeconds);
    s.queue_high_water =
        static_cast<u64>(snap.gauge_value(kMetricQueueHighWater));
    s.retries = snap.counter_value(kMetricRetries);
    s.timeouts = snap.counter_value(kMetricTimeouts);
    s.worker_crashes = snap.counter_value(kMetricWorkerCrashes);
    s.quarantined = snap.counter_value(kMetricQuarantined);
    return s;
  }

  f64 busy_seconds_total() const {
    f64 sum = 0.0;
    for (f64 s : worker_busy_seconds) sum += s;
    return sum;
  }

  /// Uncompressed GB/s over wall time.
  f64 throughput_gbps() const {
    return wall_seconds > 0.0
               ? static_cast<f64>(uncompressed_bytes) / wall_seconds / 1e9
               : 0.0;
  }

  /// Fraction of worker-seconds spent busy: busy / (threads * wall).
  f64 worker_utilization() const {
    return (threads > 0 && wall_seconds > 0.0)
               ? busy_seconds_total() / (threads * wall_seconds)
               : 0.0;
  }

  f64 compression_ratio() const {
    return compressed_bytes > 0
               ? static_cast<f64>(uncompressed_bytes) /
                     static_cast<f64>(compressed_bytes)
               : 0.0;
  }
};

/// Pre-create every engine metric family in `reg` at zero, so exports
/// from a registry that has not served a run yet still advertise the
/// full engine family set.
void declare_engine_metrics(obs::MetricsRegistry& reg);

}  // namespace ceresz::engine
