// The workloads, each driving the service's public entry points from
// outside:
//
//   bulk_fields     closed loop, N client threads, 16 MiB fields through a
//                   loopback ServiceServer (compress, then decompress the
//                   returned stream).
//   small_requests  open loop at a fixed offered rate, 64 KiB fields over
//                   at most 4 connections; latency from each due time.
//
// Both also simulate a slab of their inputs on the pinned wafer mesh
// (simulate_pair). Every response is checked: service bytes against a
// local ParallelEngine with the server's configuration, wafer streams
// against StreamCodec, every reconstructed element against the bound.
#pragma once

#include <vector>

#include "bench.h"

namespace perfbench {

/// One completed operation: its latency and when it finished, both in
/// seconds (the latter since the measurement started).
struct Sample {
  f64 latency_s = 0.0;
  f64 done_s = 0.0;
};

/// The measured operations. Every input of a workload has the same size,
/// so each operation moves `op_bytes` uncompressed bytes.
struct OpSamples {
  std::vector<Sample> compress;
  std::vector<Sample> decompress;
  u64 op_bytes = 0;
};

std::vector<f64> latencies(const std::vector<Sample>& samples);

/// What the service side did, read from its registry and the clients.
struct ServiceObs {
  u64 pool_hits = 0;
  u64 pool_misses = 0;
  u64 busy_rejected = 0;
  u64 engine_retries = 0;
  u64 client_retries = 0;
  std::vector<f64> ping_s;
  f64 elems_per_request = 0.0;
};

/// One exactly simulated compress + decompress pair on the wafer.
struct WaferPair {
  u64 compress_cycles = 0;
  u64 decompress_cycles = 0;
  u64 events = 0;  ///< fabric events of the pair

  bool operator==(const WaferPair&) const = default;
};

/// Host time of WaferMapper calls, summed from the spans the mapper
/// records when given a tracer.
struct MapperSpans {
  u64 calls = 0;
  f64 plan_s = 0.0;      ///< profile + schedule + assign
  f64 sim_s = 0.0;       ///< mapper.fabric_run
  f64 assemble_s = 0.0;  ///< mapper.assemble

  void absorb(const obs::Tracer& tracer);
};

struct WorkloadRun {
  OpSamples ops;
  std::vector<f64> setup_s;
  /// Uncompressed over compressed bytes of the inputs' reference streams
  /// (every service stream is checked byte-identical to its reference).
  f64 compression_ratio = 0.0;
  f64 peak_rss_mb = 0.0;  ///< read right after the measured loop
  Tally tally;
  ServiceObs service;
  WaferPair wafer;
  MapperSpans mapper_spans;
  f64 lateness_p50_ms = 0.0;  ///< open loop only
  f64 lateness_p99_ms = 0.0;
  f64 lateness_max_ms = 0.0;
  f64 lateness_tail_ms = 0.0;  ///< median over the last tenth of the schedule
};

/// The measured part of a workload; `tr` (nullable) enables tracing.
WorkloadRun run_bulk_fields(const Params& p, const std::vector<Input>& in,
                            f64 seconds, Tracers* tr);
WorkloadRun run_small_requests(const Params& p, const std::vector<Input>& in,
                               f64 seconds, Tracers* tr);

/// One compress + decompress of `input` on the pinned mesh, checked
/// against StreamCodec; how the workloads report simulated cycles.
WaferPair simulate_pair(const Params& p, const Input& input, Tracers* tr,
                        MapperSpans& spans, Tally& tally);

/// Host seconds of one WaferMapper compress of `input` with `sim_threads`
/// simulator threads (the simulator-scaling probe; untraced).
f64 time_wafer_compress(const Params& p, const Input& input, u32 sim_threads);

}  // namespace perfbench
