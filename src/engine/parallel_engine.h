// Parallel chunked compression engine.
//
// Splits input into fixed-size chunks (a multiple of the block size, so
// each chunk's payload is bit-identical to the corresponding slice of the
// single-stream core::StreamCodec output), compresses/decompresses them on
// a worker pool fed by a bounded queue, and frames the results in the
// self-describing chunked container (io/chunk_container.h) with a chunk
// table and per-chunk CRC32C. Output bytes are deterministic: chunk
// boundaries depend only on chunk_elems, never on the thread count.
//
// Robustness: decompression verifies every chunk's CRC before decoding.
// In strict mode (default) a corrupt chunk throws an Error naming the
// chunk; in lenient mode the chunk's element range is zero-filled, its
// index is reported in DecompressResult::corrupt_chunks, and every other
// chunk is still recovered.
//
// Fault tolerance: chunk work runs through a ChunkRunner — transient
// failures and injected worker crashes are retried with capped
// exponential backoff, and an attempt that outlives its deadline stops
// between blocks and is retried the same way. Output bytes are unchanged
// by any recovered fault; see docs/robustness.md.
// Bad bounds or input (NaN/Inf, ε too small) throw kInvalidArgument and a
// bad stream kCorruptData, neither retried; see docs/engine.md.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/block_codec.h"
#include "core/config.h"
#include "core/stream_codec.h"
#include "engine/chunk_runner.h"
#include "engine/engine_stats.h"
#include "engine/fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ceresz::engine {

struct EngineOptions {
  /// Worker threads. 0 picks std::thread::hardware_concurrency().
  u32 threads = 0;

  /// Elements per chunk; must be a positive multiple of the codec's block
  /// size. 64 Ki floats (256 KiB) keeps per-chunk overhead negligible
  /// while giving even a small input enough chunks to spread over workers.
  u64 chunk_elems = u64{64} * 1024;

  /// Bounded work-queue capacity; 0 picks 2 * threads.
  u64 queue_capacity = 0;

  /// Decompression policy for chunks whose CRC (or record structure) is
  /// bad: false = throw naming the chunk, true = zero-fill just that
  /// chunk and keep going.
  bool lenient = false;

  /// Retry/backoff/deadline policy applied to every chunk attempt (see
  /// chunk_runner.h). Transient failures are retried up to
  /// `retry.max_attempts` times; data corruption is never retried.
  RetryPolicy retry;

  /// Injected worker faults, keyed by (chunk, attempt) — empty in
  /// production; chaos tests and the degraded-mode benchmark fill it in.
  WorkerFaultPlan faults;

  /// Observability (both nullable, both borrowed — they must outlive
  /// the engine's runs). `tracer` records per-chunk spans, worker busy
  /// spans, and the queue-depth counter track. `metrics` receives the
  /// run's counters on completion (accumulated, so one registry can
  /// serve many runs); the engine's own EngineStats view works without
  /// it. With both null the instrumentation cost is one pointer test
  /// per site.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  core::CodecConfig codec;
};

/// Result of ParallelEngine::compress and compress_into.
struct EngineResult {
  /// Chunked container (header + table + payloads); compress() only —
  /// compress_into() writes it to the caller's buffer instead.
  std::vector<u8> stream;
  u64 stream_bytes = 0;   ///< size of the container
  u32 stream_crc32c = 0;  ///< CRC32C of the container's bytes
  f64 eps_abs = 0.0;
  u64 element_count = 0;
  EngineStats stats;

  f64 compression_ratio() const {
    return stream_bytes == 0
               ? 0.0
               : static_cast<f64>(element_count * sizeof(f32)) /
                     static_cast<f64>(stream_bytes);
  }
};

/// Result of ParallelEngine::decompress and decompress_into.
struct DecompressResult {
  /// Decoded values; decompress() only — decompress_into() decodes into
  /// the caller's span instead.
  std::vector<f32> values;
  /// CRC32C of the decoded values' bytes, zero-filled chunks included.
  u32 values_crc32c = 0;
  /// Chunk indices that failed CRC/decoding and were zero-filled
  /// (non-empty only in lenient mode).
  std::vector<u64> corrupt_chunks;
  EngineStats stats;
};

/// Where decompress_into() decodes: called once, after the container is
/// parsed, with its element count; returns a span of exactly that many
/// values. The span must stay valid until decompress_into() returns.
using DecodeSink = std::function<std::span<f32>(u64 element_count)>;

class ParallelEngine {
 public:
  explicit ParallelEngine(EngineOptions options = {});

  const EngineOptions& options() const { return options_; }

  /// Number of worker threads a run will actually use.
  u32 resolved_threads() const;

  /// Compress `data` under `bound` into a chunked container. Thread-safe:
  /// each call builds its own worker pool.
  EngineResult compress(std::span<const f32> data,
                        core::ErrorBound bound) const;

  /// compress(), appending the container to `out` (which may already
  /// hold bytes, e.g. a frame header) instead of returning it. The
  /// result's stream_crc32c is joined from the CRC of the header and
  /// table and the per-chunk CRCs the workers compute, so nobody reads
  /// the container again to checksum it. On a throw `out` is unchanged.
  EngineResult compress_into(std::span<const f32> data, core::ErrorBound bound,
                             std::vector<u8>& out) const;

  /// Decompress a chunked container produced by compress(). Throws on
  /// structural corruption (header/table), and on chunk corruption in
  /// strict mode; see EngineOptions::lenient.
  DecompressResult decompress(std::span<const u8> stream) const;

  /// decompress(), decoding straight into the span `sink` returns (see
  /// DecodeSink); a span of the wrong size throws before any write.
  /// Each worker checksums the values it wrote, and the result's
  /// values_crc32c joins those CRCs in chunk order.
  DecompressResult decompress_into(std::span<const u8> stream,
                                   const DecodeSink& sink) const;

  /// Cheap magic sniff: true if `stream` is a chunked container (vs the
  /// legacy single-stream "CSZ1" format).
  static bool is_chunked_stream(std::span<const u8> stream);

 private:
  EngineOptions options_;
  core::BlockCodec block_codec_;
};

}  // namespace ceresz::engine
