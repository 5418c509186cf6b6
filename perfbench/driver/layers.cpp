#include "layers.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "common/checksum.h"
#include "common/timer.h"
#include "core/block_codec.h"
#include "core/flenc.h"
#include "core/lorenzo.h"
#include "core/prequant.h"
#include "engine/parallel_engine.h"
#include "net/protocol.h"
#include "obs/analysis/stitch.h"
#include "obs/analysis/trace_analysis.h"

namespace perfbench {
namespace {

constexpr std::size_t kBlock = 32;
constexpr f64 kBlockBytes = kBlock * sizeof(f32);
/// The engine's wide probe: all cores of the 4-core reference host
/// (the `*_t4` metric names).
constexpr u32 kWideThreads = 4;

/// Time `fn` repeatedly: at least `min_reps` passes, then more while the
/// budget lasts (up to `max_reps`). Returns seconds per pass.
template <class Fn>
std::vector<f64> repeat(f64 budget_s, std::size_t min_reps,
                        std::size_t max_reps, Fn&& fn) {
  std::vector<f64> t;
  const u64 start = now_ns();
  while (t.size() < min_reps ||
         (t.size() < max_reps && seconds_since(start) < budget_s)) {
    const u64 t0 = now_ns();
    fn();
    t.push_back(seconds_since(t0));
  }
  return t;
}

template <class T>
std::span<T> block(std::vector<T>& v, std::size_t b, std::size_t per) {
  return std::span<T>(v.data() + b * per, per);
}

// --- core ------------------------------------------------------------------

/// Seconds per whole-input pass of each stage kernel and of BlockCodec,
/// summed over the inputs, plus the exact data-shape counts.
struct CoreTimes {
  f64 prequant = 0, lorenzo = 0, flenc = 0, unshuffle = 0, prefix = 0;
  f64 block_c = 0, block_d = 0;
  u64 blocks = 0, zero_blocks = 0;
  f64 fl_sum = 0;  ///< over non-zero blocks
  std::vector<f64> block_c_ns;  ///< BlockCodec compress ns/blk of each input

  f64 ns_blk(f64 s) const { return s * 1e9 / static_cast<f64>(blocks); }
};

/// Run every stage kernel, then BlockCodec, over the input one engine
/// chunk at a time (the engine's working set), timing each stage.
void probe_core(const Input& x, u64 chunk_elems, f64 budget, CoreTimes& acc,
                Tally& tally) {
  enum Stage { kPre, kLor, kFl, kUns, kPfx, kBc, kBd, kStages };
  const std::size_t nb = x.blocks();
  const std::size_t cb = std::min<std::size_t>(nb, chunk_elems / kBlock);
  const std::size_t cn = cb * kBlock;
  const f64 two_eps = 2.0 * x.eps;
  std::vector<i32> quant(cn), resid(cn), quant2(cn), prefix(cn);
  std::vector<u32> abs(cn), abs2(cn), fl(cb);
  std::vector<u8> signs(cn / 8), planes(cb * kBlock * 4), stream;
  std::vector<f32> out(nb * kBlock), out2(nb * kBlock);
  const core::BlockCodec codec{core::CodecConfig{}};
  stream.reserve(cb * codec.max_compressed_size());
  u64 zero = 0;
  f64 fl_sum = 0;

  std::vector<std::array<f64, kStages>> passes;
  const u64 start = now_ns();
  while (passes.size() < 3 || (passes.size() < 1000 && seconds_since(start) < budget)) {
    std::array<f64, kStages> t{};
    u64 mark = 0;
    const auto lap = [&](Stage s) {
      const u64 now = now_ns();
      t[s] += static_cast<f64>(now - mark) * 1e-9;
      mark = now;
    };
    for (std::size_t b0 = 0; b0 < nb; b0 += cb) {
      const std::size_t m = std::min(cb, nb - b0);
      const auto in = [&](std::size_t b) {
        return std::span<const f32>(x.values.data() + (b0 + b) * kBlock, kBlock);
      };
      mark = now_ns();
      for (std::size_t b = 0; b < m; ++b) {
        core::prequant(in(b), block(quant, b, kBlock), two_eps);
      }
      lap(kPre);
      for (std::size_t b = 0; b < m; ++b) {
        core::lorenzo_forward(block(quant, b, kBlock), block(resid, b, kBlock));
      }
      lap(kLor);
      for (std::size_t b = 0; b < m; ++b) {
        const auto a = block(abs, b, kBlock);
        core::split_sign(block(resid, b, kBlock), a, block(signs, b, kBlock / 8));
        fl[b] = core::effective_bits(core::block_max(a));
        if (fl[b] != 0) {
          core::bit_shuffle(a, fl[b], block(planes, b, kBlock * 4).first(fl[b] * 4));
        }
      }
      lap(kFl);
      for (std::size_t b = 0; b < m; ++b) {
        const auto q = block(quant2, b, kBlock);
        if (fl[b] == 0) {
          std::fill(q.begin(), q.end(), 0);
          continue;
        }
        const auto a = block(abs2, b, kBlock);
        core::bit_unshuffle(block(planes, b, kBlock * 4).first(fl[b] * 4), fl[b], a);
        core::apply_sign(a, block(signs, b, kBlock / 8), q);
      }
      lap(kUns);
      for (std::size_t b = 0; b < m; ++b) {
        core::lorenzo_inverse(block(quant2, b, kBlock), block(prefix, b, kBlock));
        core::dequant(block(prefix, b, kBlock), block(out, b0 + b, kBlock), two_eps);
      }
      lap(kPfx);
      stream.clear();
      for (std::size_t b = 0; b < m; ++b) codec.compress(in(b), x.eps, stream);
      lap(kBc);
      std::size_t pos = 0;
      for (std::size_t b = 0; b < m; ++b) {
        pos += codec.decompress(std::span<const u8>(stream).subspan(pos), x.eps,
                                block(out2, b0 + b, kBlock));
      }
      lap(kBd);
      if (passes.empty()) {
        for (std::size_t b = 0; b < m; ++b) {
          zero += fl[b] == 0;
          fl_sum += fl[b];
        }
      }
    }
    passes.push_back(t);
  }
  std::array<f64, kStages> s{};
  for (int k = 0; k < kStages; ++k) {
    std::vector<f64> v;
    for (const auto& pass : passes) v.push_back(pass[k]);
    s[k] = median(v);
  }
  tally.attempted += 2;
  tally.check_bound(x, out);
  if (!same_values(out, out2)) tally.fail(x.label + ": BlockCodec differs from the stage kernels");

  const f64 k = 1e9 / static_cast<f64>(nb);
  std::printf("# core %-9s prequant %.1f  lorenzo %.1f  flenc %.1f  unshuffle %.1f  "
              "prefix+dequant %.1f  block %.1f/%.1f ns/blk  zero %.4f  mean fl %.3f\n",
              x.label.c_str(), s[kPre] * k, s[kLor] * k, s[kFl] * k, s[kUns] * k,
              s[kPfx] * k, s[kBc] * k, s[kBd] * k, static_cast<f64>(zero) / nb,
              nb > zero ? fl_sum / static_cast<f64>(nb - zero) : 0.0);
  acc.prequant += s[kPre];
  acc.lorenzo += s[kLor];
  acc.flenc += s[kFl];
  acc.unshuffle += s[kUns];
  acc.prefix += s[kPfx];
  acc.block_c += s[kBc];
  acc.block_c_ns.push_back(s[kBc] * k);
  acc.block_d += s[kBd];
  acc.blocks += nb;
  acc.zero_blocks += zero;
  acc.fl_sum += fl_sum;
}

// --- engine ----------------------------------------------------------------

struct EngineTimes {
  f64 c1 = 0, d1 = 0, cn = 0, dn = 0;  ///< seconds, summed over inputs
  u64 bytes = 0;
  std::vector<f64> utilization;
  u64 retries = 0;
};

void probe_engine(const Params& p, const Input& x, f64 budget, EngineTimes& acc,
                  Tally& tally) {
  const core::ErrorBound bound = core::ErrorBound::relative(p.f("rel"));
  std::vector<u8> first_stream;
  for (const u32 threads : {1u, kWideThreads}) {
    engine::EngineOptions o;
    o.threads = threads;
    o.chunk_elems = p.u("chunk_elems");
    const engine::ParallelEngine eng(o);
    engine::EngineResult r;
    engine::DecompressResult d;
    const f64 tc = median(repeat(budget / 4, 3, 1000, [&] { r = eng.compress(x.values, bound); }));
    const f64 td = median(repeat(budget / 4, 3, 1000, [&] { d = eng.decompress(r.stream); }));
    tally.attempted += 2;
    tally.check_bound(x, d.values);
    if (threads == 1) {
      acc.c1 += tc;
      acc.d1 += td;
      first_stream = r.stream;
    } else {
      acc.cn += tc;
      acc.dn += td;
      acc.utilization.push_back(r.stats.worker_utilization());
      acc.utilization.push_back(d.stats.worker_utilization());
      if (!same_bytes(r.stream, first_stream)) {
        tally.fail(x.label + ": engine output depends on the thread count");
      }
    }
    acc.retries += r.stats.retries + d.stats.retries;
  }
  acc.bytes += x.bytes();
}

/// Microseconds of one single-chunk engine call (the service's engine
/// configuration) beyond the block work it contains.
f64 probe_call_overhead_us(const Params& p, const Input& x, f64 block_ns,
                           f64 budget) {
  engine::EngineOptions o;
  o.threads = static_cast<u32>(p.u("engine_threads"));
  o.chunk_elems = p.u("chunk_elems");
  const engine::ParallelEngine eng(o);
  const std::size_t n = std::min<std::size_t>(x.values.size(), o.chunk_elems);
  const std::span<const f32> chunk(x.values.data(), n);
  const core::ErrorBound bound = core::ErrorBound::relative(p.f("rel"));
  const f64 call = median(repeat(budget, 20, 100000, [&] { (void)eng.compress(chunk, bound); }));
  return (call * 1e9 - static_cast<f64>(n / kBlock) * block_ns) * 1e-3;
}

// --- common / net / host ---------------------------------------------------

f64 probe_crc_gbps(const Input& x, f64 budget) {
  const std::span<const u8> bytes(reinterpret_cast<const u8*>(x.values.data()),
                                  x.bytes());
  u32 sink = 0;
  const f64 t = median(repeat(budget, 5, 100000, [&] { sink = crc32c(bytes); }));
  std::printf("# common crc32c of %llu bytes = %08x\n",
              static_cast<unsigned long long>(x.bytes()), sink);
  return static_cast<f64>(x.bytes()) / t * 1e-9;
}

void probe_frames(const Params& p, const Input& x, f64 budget, Report& out,
                  Tally& tally) {
  std::vector<u8> payload, frame;
  net::CompressRequest req;
  req.bound = core::ErrorBound::relative(p.f("rel"));
  req.data = x.values;
  const f64 enc = median(repeat(budget / 2, 20, 100000, [&] {
    payload.clear();
    net::append_compress_request(payload, req);
    frame.clear();
    net::append_frame(frame, net::Opcode::kCompress, net::Status::kOk, 1, payload);
  }));
  bool ok = true;
  std::size_t decoded = 0;
  const f64 dec = median(repeat(budget / 2, 20, 100000, [&] {
    const net::FrameHeader h = net::parse_frame_header(frame, net::kDefaultMaxPayload);
    const auto body = std::span<const u8>(frame).subspan(net::frame_header_bytes(h.version));
    ok = ok && net::payload_crc_ok(h, body);
    decoded = net::decode_compress_request(body).data.size();
  }));
  tally.attempted += 1;
  if (!ok || decoded != x.values.size()) tally.fail("frame round trip lost data");
  out.add("net.frame_encode_us", enc * 1e6, "us");
  out.add("net.frame_decode_us", dec * 1e6, "us");
}

f64 probe_memcpy_gbps(const Params& p) {
  long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 <= 0) l3 = 105L << 20;
  const std::size_t size = p.has("memcpy_mb")
                               ? static_cast<std::size_t>(p.u("memcpy_mb")) << 20
                               : static_cast<std::size_t>(l3) * 4;
  std::vector<u8> src(size, 1), dst(size, 0);
  const f64 t = median(repeat(0.0, 3, 3, [&] {
    std::memcpy(dst.data(), src.data(), size);
  }));
  if (dst[size - 1] != 1) return 0.0;
  return static_cast<f64>(size) / t * 1e-9;
}

// --- service spans ---------------------------------------------------------

struct ServiceSpans {
  std::vector<f64> queue, decode, engine, encode, write, network, self, client;
};

ServiceSpans stitch_service(const Tracers& tr) {
  namespace an = obs::analysis;
  const an::StitchReport st =
      an::stitch_traces(an::from_tracer(*tr.client), an::from_tracer(*tr.server));
  ServiceSpans s;
  const auto ms = [](u64 ns) { return static_cast<f64>(ns) * 1e-6; };
  for (const auto& req : st.requests) {
    for (const auto& a : req.attempts) {
      if (!a.matched) continue;
      s.queue.push_back(ms(a.queue_wait_ns));
      s.decode.push_back(ms(a.decode_ns));
      s.engine.push_back(ms(a.engine_ns));
      s.encode.push_back(ms(a.encode_ns));
      s.write.push_back(ms(a.write_ns));
      s.network.push_back(ms(a.network_ns));
      s.client.push_back(ms(a.client_dur_ns));
      s.self.push_back(ms(a.server_dur_ns) - ms(a.queue_wait_ns) - ms(a.decode_ns) -
                       ms(a.engine_ns) - ms(a.encode_ns) - ms(a.write_ns));
    }
  }
  std::printf("# net stitched %llu requests, %llu of %llu attempts joined a server span tree\n",
              static_cast<unsigned long long>(st.totals.requests),
              static_cast<unsigned long long>(st.totals.matched_attempts),
              static_cast<unsigned long long>(st.totals.attempts));
  return s;
}

f64 ratio(f64 num, f64 den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace

void measure_layers(const LayerRunInputs& in, Report& out, Tally& tally) {
  const Params& p = in.params;
  const f64 budget = p.f("probe_seconds");
  obs::Tracer* probes = in.tracers.probes.get();

  CoreTimes core;
  {
    const obs::SpanGuard span(probes, "probe.core", "perfbench");
    for (const Input& x : in.inputs) probe_core(x, p.u("chunk_elems"), budget, core, tally);
  }
  const f64 kernels_c = core.ns_blk(core.prequant + core.lorenzo + core.flenc);
  const f64 kernels_d = core.ns_blk(core.unshuffle + core.prefix);
  const f64 block_c = core.ns_blk(core.block_c);
  const f64 block_d = core.ns_blk(core.block_d);
  out.add("core.prequant_ns_blk", core.ns_blk(core.prequant), "ns/blk");
  out.add("core.lorenzo_ns_blk", core.ns_blk(core.lorenzo), "ns/blk");
  out.add("core.flenc_ns_blk", core.ns_blk(core.flenc), "ns/blk");
  out.add("core.unshuffle_ns_blk", core.ns_blk(core.unshuffle), "ns/blk");
  out.add("core.prefix_dequant_ns_blk", core.ns_blk(core.prefix), "ns/blk");
  out.add("core.block_compress_ns_blk", block_c, "ns/blk");
  out.add("core.block_decompress_ns_blk", block_d, "ns/blk");
  out.add("core.block_overhead_frac",
          1.0 - ratio(kernels_c + kernels_d, block_c + block_d), "frac");
  out.add("core.zero_block_frac",
          ratio(static_cast<f64>(core.zero_blocks), static_cast<f64>(core.blocks)), "frac");
  out.add("core.mean_fixed_length",
          ratio(core.fl_sum, static_cast<f64>(core.blocks - core.zero_blocks)), "bits");

  EngineTimes eng;
  f64 overhead_us = 0.0;
  {
    const obs::SpanGuard span(probes, "probe.engine", "perfbench");
    for (const Input& x : in.inputs) probe_engine(p, x, budget, eng, tally);
    overhead_us = probe_call_overhead_us(p, in.inputs[0], core.block_c_ns[0], budget);
  }
  const f64 gb = static_cast<f64>(eng.bytes) * 1e-9;
  const f64 c1 = gb / eng.c1, d1 = gb / eng.d1, cn = gb / eng.cn, dn = gb / eng.dn;
  out.add("engine.compress_gbps_t1", c1, "GB/s");
  out.add("engine.compress_gbps_t4", cn, "GB/s");
  out.add("engine.decompress_gbps_t1", d1, "GB/s");
  out.add("engine.decompress_gbps_t4", dn, "GB/s");
  out.add("engine.scaling_eff_compress", cn / (kWideThreads * c1), "frac");
  out.add("engine.scaling_eff_decompress", dn / (kWideThreads * d1), "frac");
  out.add("engine.worker_utilization", mean(eng.utilization), "frac");
  out.add("engine.call_overhead_us", overhead_us, "us");
  out.add("engine.retries",
          static_cast<f64>(eng.retries + in.traced.service.engine_retries), "count");

  {
    const obs::SpanGuard span(probes, "probe.common", "perfbench");
    out.add("common.crc32c_gbps", probe_crc_gbps(in.inputs[0], budget), "GB/s");
  }

  const ServiceObs& svc = in.traced.service;
  ServiceSpans spans;
  {
    const obs::SpanGuard span(probes, "probe.net", "perfbench");
    probe_frames(p, in.inputs[0], budget, out, tally);
    spans = stitch_service(in.tracers);
  }
  tally.attempted += 1;
  if (spans.engine.empty()) tally.fail("no server span tree joined a client attempt");
  out.add("net.ping_rtt_us", median(svc.ping_s) * 1e6, "us");
  out.add("server.queue_wait_ms", median(spans.queue), "ms");
  out.add("server.decode_ms", median(spans.decode), "ms");
  out.add("server.engine_ms", median(spans.engine), "ms");
  out.add("server.encode_ms", median(spans.encode), "ms");
  out.add("server.write_ms", median(spans.write), "ms");
  out.add("net.network_ms", median(spans.network), "ms");
  out.add("server.pool_hit_rate",
          ratio(static_cast<f64>(svc.pool_hits),
                static_cast<f64>(svc.pool_hits + svc.pool_misses)), "frac");
  out.add("server.busy_rejected", static_cast<f64>(svc.busy_rejected), "count");
  out.add("client.retries", static_cast<f64>(svc.client_retries), "count");

  const MapperSpans& ms = in.traced.mapper_spans;
  const WaferPair& wp = in.traced.wafer;
  tally.attempted += 1;
  if (ms.calls == 0) tally.fail("no WaferMapper span was recorded");
  const f64 calls = static_cast<f64>(std::max<u64>(ms.calls, 1));
  out.add("mapping.plan_ms", ms.plan_s / calls * 1e3, "ms");
  out.add("mapping.assemble_ms", ms.assemble_s / calls * 1e3, "ms");
  out.add("wse.sim_ms", ms.sim_s / calls * 1e3, "ms");
  out.add("wse.events_per_s",
          ratio(static_cast<f64>(wp.events) * calls / 2.0, ms.sim_s), "1/s");
  out.add("wse.events_processed", static_cast<f64>(wp.events), "count");
  out.add("wse.sim_scaling_eff", in.sim_scaling_eff, "frac");

  // Tracing overhead: traced minus untraced end-to-end median latency,
  // over the untraced one (compress and decompress medians summed).
  const auto p50_sum = [](const WorkloadRun& r) {
    return median(latencies(r.ops.compress)) + median(latencies(r.ops.decompress));
  };
  out.add("obs.trace_overhead_frac",
          ratio(p50_sum(in.traced) - p50_sum(in.untraced), p50_sum(in.untraced)),
          "frac");

  {
    const obs::SpanGuard span(probes, "probe.host", "perfbench");
    out.add("host.memcpy_gbps", probe_memcpy_gbps(p), "GB/s");
  }

  // Neighbouring layers along compress + decompress of one block:
  // kernels -> BlockCodec -> engine at 1 thread -> server.engine ->
  // client latency. Each ratio is printed with its base.
  const f64 kernels_pair = kernels_c + kernels_d;
  const f64 codec_pair = block_c + block_d;
  const f64 engine_pair = kBlockBytes / c1 + kBlockBytes / d1;
  const f64 blocks_per_req = svc.elems_per_request / static_cast<f64>(kBlock);
  const f64 server_pair = median(spans.engine) * 1e6 * 2.0 / blocks_per_req;
  const f64 client_pair = median(spans.client) * 1e6 * 2.0 / blocks_per_req;
  out.add("self.codec_ns_blk", (codec_pair - kernels_pair) / 2.0, "ns/blk");
  out.add("self.engine_t1_ns_blk", (engine_pair - codec_pair) / 2.0, "ns/blk");
  out.add("self.server_request_ms", median(spans.self), "ms");
  out.add("ratio.codec_vs_kernels", ratio(codec_pair, kernels_pair), "x");
  out.add("ratio.engine_t1_vs_codec", ratio(engine_pair, codec_pair), "x");
  out.add("ratio.server_engine_vs_engine_t1", ratio(server_pair, engine_pair), "x");
  out.add("ratio.client_vs_server_engine", ratio(client_pair, server_pair), "x");
  std::printf("# chain ns per block, compress+decompress: kernels %.1f -> BlockCodec %.1f "
              "-> engine t1 %.1f -> server.engine %.1f -> client %.1f "
              "(server and client at %.0f blocks per request)\n",
              kernels_pair, codec_pair, engine_pair, server_pair, client_pair,
              blocks_per_req);
}

}  // namespace perfbench
