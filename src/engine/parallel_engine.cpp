#include "engine/parallel_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "common/byte_io.h"
#include "common/checksum.h"
#include "common/error.h"
#include "common/timer.h"
#include "core/prequant.h"
#include "engine/chunk_runner.h"
#include "engine/thread_pool.h"
#include "io/chunk_container.h"

namespace ceresz::engine {

namespace {

/// Per-chunk compression output, later assembled in chunk order.
struct ChunkOutput {
  std::vector<u8> bytes;
  core::StreamStats stats;
  u32 crc = 0;
};

/// Handles into the per-run metrics registry — the run's single write
/// path for every scalar that EngineStats later reports (EngineStats is
/// materialized from the registry snapshot, never updated directly).
struct EngineMetrics {
  obs::Counter& chunks;
  obs::Counter& uncompressed_bytes;
  obs::Counter& compressed_bytes;
  obs::Counter& retries;
  obs::Counter& timeouts;
  obs::Counter& worker_crashes;
  obs::Counter& quarantined;
  obs::Gauge& threads;
  obs::Gauge& queue_high_water;
  obs::Gauge& wall_seconds;
  obs::Gauge& busy_seconds;
  obs::Histogram& chunk_seconds;

  explicit EngineMetrics(obs::MetricsRegistry& reg)
      : chunks(reg.counter(kMetricChunks)),
        uncompressed_bytes(reg.counter(kMetricUncompressedBytes)),
        compressed_bytes(reg.counter(kMetricCompressedBytes)),
        retries(reg.counter(kMetricRetries)),
        timeouts(reg.counter(kMetricTimeouts)),
        worker_crashes(reg.counter(kMetricWorkerCrashes)),
        quarantined(reg.counter(kMetricQuarantined)),
        threads(reg.gauge(kMetricThreads)),
        queue_high_water(reg.gauge(kMetricQueueHighWater)),
        wall_seconds(reg.gauge(kMetricWallSeconds)),
        busy_seconds(reg.gauge(kMetricBusySeconds)),
        chunk_seconds(reg.histogram(
            kMetricChunkSeconds,
            obs::MetricsRegistry::default_seconds_buckets())) {}

  /// Fold a ChunkRunner report into the run's counters.
  void merge(const RunReport& report) {
    retries.add(report.retries);
    timeouts.add(report.timeouts);
    worker_crashes.add(report.worker_crashes);
  }

  /// Set the end-of-run gauges, take the run's snapshot and fold it into
  /// the caller's registry (if any). Failed runs publish too, so their
  /// retries and timeouts are not lost with the result.
  obs::MetricsSnapshot finish(const obs::MetricsRegistry& reg,
                              obs::MetricsRegistry* sink, u32 thread_count,
                              const ThreadPool& pool, f64 wall) {
    threads.set(thread_count);
    queue_high_water.set(static_cast<f64>(pool.queue_high_water()));
    wall_seconds.set(wall);
    f64 busy = 0.0;
    for (f64 s : pool.busy_seconds()) busy += s;
    busy_seconds.set(busy);
    obs::MetricsSnapshot snap = reg.snapshot();
    if (sink) sink->accumulate(snap);
    return snap;
  }
};

/// Abort a chunk attempt whose CancelToken expired: a deadline error, which
/// the ChunkRunner retries, marked on the trace where it happened.
[[noreturn]] void throw_timeout(obs::Tracer* tracer, u64 chunk,
                                const std::string& what) {
  if (tracer) {
    tracer->instant("chunk.timeout", "engine", "chunk",
                    static_cast<i64>(chunk));
  }
  throw Error(what, ErrorKind::kDeadline);
}

/// The error for a chunk that failed terminally, with its kind.
[[noreturn]] void throw_failure(const ChunkFailure& f) {
  throw Error("ParallelEngine: chunk " + std::to_string(f.chunk) +
                  " failed after " + std::to_string(f.attempts) +
                  " attempt(s): " + f.message,
              f.kind);
}

/// Apply the injected fault (if any) for this attempt. kStall sleeps once,
/// until the stall ends or the attempt expires, whichever comes first; an
/// expiry times the attempt out, otherwise it proceeds with the real work
/// (modeling a worker that was slow, not broken).
void maybe_inject(const WorkerFaultPlan& plan, u64 chunk, u32 attempt,
                  const CancelToken& cancel, obs::Tracer* tracer) {
  switch (plan.fault(chunk, attempt)) {
    case WorkerFault::kNone:
      return;
    case WorkerFault::kThrow:
      throw Error("injected transient fault at chunk " +
                  std::to_string(chunk) + " attempt " +
                  std::to_string(attempt));
    case WorkerFault::kCrash:
      if (tracer) {
        tracer->instant("worker.crash", "engine", "chunk",
                        static_cast<i64>(chunk));
      }
      throw WorkerCrash{};
    case WorkerFault::kStall: {
      const auto stall_end = CancelToken::clock::now() +
                             std::chrono::milliseconds(plan.stall_ms);
      if (cancel.expiry() < stall_end) {
        std::this_thread::sleep_until(cancel.expiry());
        throw_timeout(tracer, chunk,
                      "an injected stall outlived the attempt's deadline");
      }
      std::this_thread::sleep_until(stall_end);
      return;
    }
  }
}

/// The stop predicate for an attempt's block loop. A block takes about
/// 120 ns, so it reads the clock before the first block and then once
/// every 64 blocks.
auto deadline_poll(const CancelToken& cancel) {
  return [&cancel, blocks = u32{0}]() mutable {
    return blocks++ % 64 == 0 && cancel.cancelled();
  };
}

}  // namespace

void declare_engine_metrics(obs::MetricsRegistry& reg) {
  EngineMetrics declared(reg);
  (void)declared;
}

ParallelEngine::ParallelEngine(EngineOptions options)
    : options_(options), block_codec_(options.codec) {
  const u32 L = block_codec_.config().block_size;
  CERESZ_CHECK(options_.chunk_elems > 0 && options_.chunk_elems % L == 0,
               "ParallelEngine: chunk_elems must be a positive multiple of "
               "the block size");
}

u32 ParallelEngine::resolved_threads() const {
  if (options_.threads > 0) return options_.threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

bool ParallelEngine::is_chunked_stream(std::span<const u8> stream) {
  return io::is_chunked_stream(stream);
}

EngineResult ParallelEngine::compress(std::span<const f32> data,
                                      core::ErrorBound bound) const {
  std::vector<u8> stream;
  EngineResult result = compress_into(data, bound, stream);
  result.stream = std::move(stream);
  return result;
}

EngineResult ParallelEngine::compress_into(std::span<const f32> data,
                                           core::ErrorBound bound,
                                           std::vector<u8>& out) const {
  const core::CodecConfig& cfg = block_codec_.config();
  const u32 L = cfg.block_size;
  const u64 n = data.size();
  const u64 C = options_.chunk_elems;
  const u64 n_chunks = (n + C - 1) / C;

  WallTimer timer;
  obs::Tracer* const tracer = options_.tracer;
  obs::MetricsRegistry reg;
  EngineMetrics em(reg);
  obs::SpanGuard run_span(tracer, "engine.compress", "engine", "chunks",
                          static_cast<i64>(n_chunks), "elements",
                          static_cast<i64>(n));
  const u32 threads = resolved_threads();
  ThreadPool pool(threads, options_.queue_capacity, tracer);

  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto record_error = [&] {
    std::lock_guard lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
  };

  // Resolve the bound. A REL bound needs the global value range; min/max
  // reduce exactly and order-independently, so computing them per-slice on
  // the pool keeps eps (and therefore every payload byte) identical to the
  // single-threaded StreamCodec result.
  f64 eps;
  if (bound.mode == core::ErrorBound::Mode::kAbsolute || n == 0) {
    eps = bound.resolve(0.0);
  } else {
    obs::SpanGuard minmax_span(tracer, "engine.minmax", "engine");
    std::vector<core::MinMax> slices(n_chunks);
    for (u64 c = 0; c < n_chunks; ++c) {
      pool.submit([&, c] {
        try {
          const u64 begin = c * C;
          slices[c] = core::min_max(
              data.subspan(begin, std::min(n, begin + C) - begin));
        } catch (...) {
          record_error();
        }
      });
    }
    pool.wait_idle();
    if (first_error) std::rethrow_exception(first_error);
    f64 lo = slices[0].min, hi = slices[0].max;
    for (u64 c = 1; c < n_chunks; ++c) {
      lo = std::min(lo, slices[c].min);
      hi = std::max(hi, slices[c].max);
    }
    eps = bound.resolve(hi - lo);
  }

  // Compress chunks. Each attempt builds a fresh ChunkOutput and installs
  // it only on success, so a failed or retried attempt never leaves a
  // half-written slot; the payload bytes depend on chunk boundaries alone
  // — never on scheduling, retries, or which worker ran the chunk.
  std::vector<ChunkOutput> outs(n_chunks);
  ChunkRunner runner(pool, options_.retry);
  const RunReport report = runner.run(
      n_chunks, [&](u64 c, u32 attempt, const CancelToken& cancel) {
        const u64 attempt_start = now_ns();
        obs::SpanGuard span(tracer, "chunk.compress", "engine", "chunk",
                            static_cast<i64>(c), "attempt",
                            static_cast<i64>(attempt));
        if (attempt > 0 && tracer) {
          tracer->instant("chunk.retry", "engine", "chunk",
                          static_cast<i64>(c));
        }
        maybe_inject(options_.faults, c, attempt, cancel, tracer);
        const u64 begin = c * C;
        const u64 end = std::min(n, begin + C);
        ChunkOutput o;
        if (!block_codec_.compress_blocks(
                data.subspan(begin, end - begin), eps, o.bytes, o.stats,
                deadline_poll(cancel))) {
          throw_timeout(tracer, c, "the attempt exceeded its deadline");
        }
        o.crc = crc32c(o.bytes);
        outs[c] = std::move(o);
        em.chunk_seconds.observe(static_cast<f64>(now_ns() - attempt_start) *
                                 1e-9);
      });
  // All chunks are resolved, but a worker's final busy/span accounting
  // lands after it records the completion — wait for true idleness before
  // reading the pool's counters (see ThreadPool::busy_seconds()).
  pool.wait_idle();
  em.merge(report);
  // Compression has no lenient mode: the caller asked for a complete
  // container, and a chunk that failed terminally means there is none to
  // give.
  if (!report.all_succeeded()) {
    em.finish(reg, options_.metrics, threads, pool, timer.seconds());
    throw_failure(report.failed.front());
  }

  // Assemble the container: header + chunk table, then payloads in order.
  io::ChunkedHeader header;
  header.codec_header_bytes = cfg.header_bytes;
  header.block_size = L;
  header.chunk_count = static_cast<u32>(n_chunks);
  header.element_count = n;
  header.chunk_elems = C;
  header.eps_abs = eps;

  std::vector<io::ChunkEntry> entries(n_chunks);
  u64 offset = header.payload_start();
  for (u64 c = 0; c < n_chunks; ++c) {
    entries[c].offset = offset;
    entries[c].compressed_bytes = outs[c].bytes.size();
    entries[c].element_count = std::min(n - c * C, C);
    entries[c].crc32c = outs[c].crc;
    offset += outs[c].bytes.size();
  }

  EngineResult result;
  result.eps_abs = eps;
  result.element_count = n;
  result.stream_bytes = offset;
  {
    obs::SpanGuard assemble_span(tracer, "engine.assemble", "engine");
    const std::size_t start = out.size();
    out.reserve(start + offset);
    io::write_container_prefix(out, header, entries);
    u32 crc = crc32c(std::span<const u8>(out).subspan(start));
    for (const ChunkOutput& o : outs) {
      out.insert(out.end(), o.bytes.begin(), o.bytes.end());
      crc = crc32c_combine(crc, o.crc, o.bytes.size());
      result.stats.stream.merge(o.stats);
    }
    result.stream_crc32c = crc;
  }

  em.chunks.add(n_chunks);
  em.uncompressed_bytes.add(n * sizeof(f32));
  em.compressed_bytes.add(result.stream_bytes);
  const obs::MetricsSnapshot snap =
      em.finish(reg, options_.metrics, threads, pool, timer.seconds());
  const core::StreamStats stream_stats = result.stats.stream;
  result.stats = EngineStats::from_snapshot(snap);
  result.stats.stream = stream_stats;
  result.stats.worker_busy_seconds = pool.busy_seconds();
  return result;
}

DecompressResult ParallelEngine::decompress(std::span<const u8> stream) const {
  std::vector<f32> values;
  DecompressResult result = decompress_into(stream, [&](u64 n) {
    values.resize(n);
    return std::span<f32>(values);
  });
  result.values = std::move(values);
  return result;
}

DecompressResult ParallelEngine::decompress_into(std::span<const u8> stream,
                                                 const DecodeSink& sink) const {
  WallTimer timer;
  obs::Tracer* const tracer = options_.tracer;
  obs::MetricsRegistry reg;
  EngineMetrics em(reg);
  io::ParsedContainer parsed;
  const core::CodecConfig& cfg = block_codec_.config();
  try {
    parsed = io::parse_container(stream);
    CERESZ_CHECK(parsed.header.codec_header_bytes == cfg.header_bytes,
                 "ParallelEngine: stream was written with a different block "
                 "header width than this engine's configuration");
    CERESZ_CHECK(parsed.header.block_size == cfg.block_size,
                 "ParallelEngine: stream was written with a different block "
                 "size than this engine's configuration");
  } catch (const Error& e) {
    // Whichever check rejects the stream, its bytes are at fault.
    throw Error(e.what(), ErrorKind::kCorruptData);
  }
  const io::ChunkedHeader& h = parsed.header;
  const u64 n = h.element_count;

  obs::SpanGuard run_span(tracer, "engine.decompress", "engine", "chunks",
                          static_cast<i64>(parsed.entries.size()), "elements",
                          static_cast<i64>(n));

  DecompressResult result;
  const std::span<f32> values = sink(n);
  CERESZ_CHECK(values.size() == n,
               "ParallelEngine: the decode sink returned a span of the wrong "
               "size");
  f32* out = values.data();
  std::vector<u32> chunk_crcs(parsed.entries.size());

  const u32 threads = resolved_threads();
  ThreadPool pool(threads, options_.queue_capacity, tracer);

  // Each attempt decodes straight into its disjoint output range and
  // checksums what it wrote while the bytes are still in cache. Corrupt
  // data (CRC mismatch, undecodable record) throws kCorruptData, which
  // the ChunkRunner never retries, while injected/transient faults and
  // timeouts go through its retry ladder. A chunk that still fails is
  // quarantined below: zero-filled and reported in lenient mode, fatal in
  // strict mode.
  ChunkRunner runner(pool, options_.retry);
  const RunReport report = runner.run(
      parsed.entries.size(),
      [&](u64 c, u32 attempt, const CancelToken& cancel) {
        const u64 attempt_start = now_ns();
        obs::SpanGuard span(tracer, "chunk.decompress", "engine", "chunk",
                            static_cast<i64>(c), "attempt",
                            static_cast<i64>(attempt));
        if (attempt > 0 && tracer) {
          tracer->instant("chunk.retry", "engine", "chunk",
                          static_cast<i64>(c));
        }
        maybe_inject(options_.faults, c, attempt, cancel, tracer);
        const io::ChunkEntry& e = parsed.entries[c];
        const u64 begin = c * h.chunk_elems;
        const auto payload = stream.subspan(e.offset, e.compressed_bytes);
        if (crc32c(payload) != e.crc32c) {
          throw Error("payload failed its CRC32C check",
                      ErrorKind::kCorruptData);
        }
        const std::span<f32> chunk_out(out + begin, e.element_count);
        bool finished = false;
        try {
          finished = block_codec_.decompress_blocks(
              payload, h.eps_abs, chunk_out, deadline_poll(cancel));
        } catch (const std::exception& ex) {
          throw Error(std::string("undecodable payload: ") + ex.what(),
                      ErrorKind::kCorruptData);
        }
        if (!finished) {
          throw_timeout(tracer, c, "the attempt exceeded its deadline");
        }
        chunk_crcs[c] = crc32c(raw_bytes(chunk_out));
        em.chunk_seconds.observe(static_cast<f64>(now_ns() - attempt_start) *
                                 1e-9);
      });

  // See the matching wait in compress(): pool counters are only
  // consistent once every worker has finished its post-task accounting.
  pool.wait_idle();
  em.merge(report);
  if (!options_.lenient && !report.all_succeeded()) {
    em.finish(reg, options_.metrics, threads, pool, timer.seconds());
    throw_failure(report.failed.front());
  }

  for (const ChunkFailure& f : report.failed) {
    const io::ChunkEntry& e = parsed.entries[f.chunk];
    const std::span<f32> chunk_out(out + f.chunk * h.chunk_elems,
                                   e.element_count);
    std::fill(chunk_out.begin(), chunk_out.end(), 0.0f);
    chunk_crcs[f.chunk] = crc32c(raw_bytes(chunk_out));
    result.corrupt_chunks.push_back(f.chunk);
    em.quarantined.add(1);
    if (tracer) {
      tracer->instant("chunk.quarantined", "engine", "chunk",
                      static_cast<i64>(f.chunk));
    }
  }

  for (std::size_t c = 0; c < chunk_crcs.size(); ++c) {
    result.values_crc32c =
        crc32c_combine(result.values_crc32c, chunk_crcs[c],
                       parsed.entries[c].element_count * sizeof(f32));
  }

  em.chunks.add(parsed.entries.size());
  em.uncompressed_bytes.add(n * sizeof(f32));
  em.compressed_bytes.add(stream.size());
  const obs::MetricsSnapshot snap =
      em.finish(reg, options_.metrics, threads, pool, timer.seconds());
  result.stats = EngineStats::from_snapshot(snap);
  result.stats.worker_busy_seconds = pool.busy_seconds();
  return result;
}

}  // namespace ceresz::engine
