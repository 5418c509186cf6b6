#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "common/timer.h"
#include "core/stream_codec.h"
#include "engine/engine_stats.h"
#include "engine/parallel_engine.h"
#include "mapping/wafer_mapper.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {
namespace {

core::ErrorBound bound_of(const Params& p) {
  return core::ErrorBound::relative(p.f("rel"));
}

engine::EngineOptions engine_options(const Params& p) {
  engine::EngineOptions e;
  e.threads = static_cast<u32>(p.u("engine_threads"));
  e.chunk_elems = p.u("chunk_elems");
  return e;
}

/// The expected service output for one input: a local ParallelEngine
/// with exactly the server's engine configuration.
struct Reference {
  std::vector<u8> stream;
  std::vector<f32> values;
};

std::vector<Reference> engine_references(const Params& p,
                                         const std::vector<Input>& in,
                                         Tally& tally) {
  const engine::ParallelEngine eng(engine_options(p));
  std::vector<Reference> refs;
  for (const Input& x : in) {
    engine::EngineResult r = eng.compress(x.values, bound_of(p));
    if (r.eps_abs != x.eps) tally.fail(x.label + ": engine resolved another bound");
    Reference ref;
    ref.values = eng.decompress(r.stream).values;
    ref.stream = std::move(r.stream);
    tally.check_bound(x, ref.values);
    refs.push_back(std::move(ref));
  }
  return refs;
}

/// Uncompressed over compressed bytes of every input: exact for a seed,
/// whatever mix of requests a timed loop completes.
f64 reference_ratio(const std::vector<Input>& in, const std::vector<Reference>& refs) {
  u64 raw = 0, packed = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    raw += in[i].bytes();
    packed += refs[i].stream.size();
  }
  return static_cast<f64>(raw) / static_cast<f64>(packed);
}

/// A loopback ServiceServer plus one client per connection. Set-up is
/// repeated `reps` times (construct, start, connect, first request of
/// every connection answered) and the last instance serves the run.
class Service {
 public:
  Service(const Params& p, Tracers* tr, const std::vector<Input>& in,
          const std::vector<Reference>& refs, u32 connections, Tally& tally)
      : p_(p), tr_(tr), in_(in), refs_(refs), conns_(connections),
        tally_(tally) {}

  ~Service() { stop(); }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::vector<f64> setup(u32 reps) {
    std::vector<f64> times;
    for (u32 r = 0; r < reps; ++r) {
      stop();
      const u64 t0 = now_ns();
      net::ServerOptions so;
      so.workers = static_cast<u32>(p_.u("workers"));
      so.max_inflight = p_.u("max_inflight");
      so.engine = engine_options(p_);
      if (tr_ != nullptr) so.tracer = tr_->server.get();
      server_ = std::make_unique<net::ServiceServer>(std::move(so));
      server_->start();
      clients_.clear();
      for (u32 c = 0; c < conns_; ++c) {
        clients_.push_back(std::make_unique<net::CereszClient>(
            net::RetryPolicy{}, nullptr,
            tr_ != nullptr ? tr_->client.get() : nullptr));
      }
      std::vector<std::thread> threads;
      for (u32 c = 0; c < conns_; ++c) {
        threads.emplace_back([this, c] {
          const std::size_t idx = c % in_.size();
          try {
            clients_[c]->connect("127.0.0.1", server_->port());
            const auto s = clients_[c]->compress(in_[idx].values, bound_of(p_));
            check_compress(idx, s);
          } catch (const std::exception& e) {
            fail(std::string("setup request: ") + e.what());
          }
        });
      }
      for (auto& t : threads) t.join();
      times.push_back(seconds_since(t0));
    }
    return times;
  }

  net::CereszClient& client(u32 c) { return *clients_[c]; }

  void check_compress(std::size_t idx, std::span<const u8> stream) {
    std::lock_guard lock(mu_);
    ++tally_.attempted;
    if (!same_bytes(stream, refs_[idx].stream)) {
      tally_.fail(in_[idx].label + ": service stream differs from the engine");
    }
  }

  void check_decompress(std::size_t idx, std::span<const f32> values) {
    std::lock_guard lock(mu_);
    ++tally_.attempted;
    tally_.check_bound(in_[idx], values);
    if (!same_values(values, refs_[idx].values)) {
      tally_.fail(in_[idx].label + ": service values differ from the engine");
    }
  }

  void fail(const std::string& why) {
    std::lock_guard lock(mu_);
    ++tally_.attempted;
    tally_.fail(why);
  }

  /// Read the registry and client counters, ping, and stop.
  ServiceObs finish() {
    ServiceObs o;
    try {
      for (int i = 0; i < 200; ++i) o.ping_s.push_back(clients_[0]->ping());
    } catch (const std::exception& e) {
      fail(std::string("ping: ") + e.what());
    }
    for (const auto& c : clients_) o.client_retries += c->stats().retries;
    const obs::MetricsSnapshot snap = server_->metrics().snapshot();
    o.pool_hits = snap.counter_value(net::kMetricPoolHits);
    o.pool_misses = snap.counter_value(net::kMetricPoolMisses);
    o.busy_rejected = snap.counter_value(net::kMetricBusyRejected);
    o.engine_retries = snap.counter_value(engine::kMetricRetries);
    o.elems_per_request = static_cast<f64>(in_[0].values.size());
    stop();
    return o;
  }

 private:
  void stop() {
    clients_.clear();
    if (server_) server_->stop();
    server_.reset();
  }

  const Params& p_;
  Tracers* tr_;
  const std::vector<Input>& in_;
  const std::vector<Reference>& refs_;
  const u32 conns_;
  Tally& tally_;
  std::mutex mu_;
  std::unique_ptr<net::ServiceServer> server_;
  std::vector<std::unique_ptr<net::CereszClient>> clients_;
};

/// Thread-safe sink for the operations of one measurement.
class Recorder {
 public:
  Recorder(OpSamples& ops, u64 start_ns) : ops_(ops), start_ns_(start_ns) {}

  void compress(f64 latency_s) {
    std::lock_guard lock(mu_);
    ops_.compress.push_back({latency_s, seconds_since(start_ns_)});
  }

  void decompress(f64 latency_s) {
    std::lock_guard lock(mu_);
    ops_.decompress.push_back({latency_s, seconds_since(start_ns_)});
  }

 private:
  OpSamples& ops_;
  const u64 start_ns_;
  std::mutex mu_;
};

mapping::MapperOptions mapper_options(const Params& p, u32 sim_threads,
                                      obs::Tracer* tracer) {
  mapping::MapperOptions m;
  m.rows = static_cast<u32>(p.u("rows"));
  m.cols = static_cast<u32>(p.u("cols"));
  m.pipeline_length = static_cast<u32>(p.u("pipeline_length"));
  m.max_exact_rows = static_cast<u32>(p.u("max_exact_rows"));
  m.sim_threads = sim_threads;
  m.tracer = tracer;
  return m;
}

}  // namespace

std::vector<f64> latencies(const std::vector<Sample>& samples) {
  std::vector<f64> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.latency_s);
  return out;
}

WorkloadRun run_bulk_fields(const Params& p, const std::vector<Input>& in,
                            f64 seconds, Tracers* tr) {
  WorkloadRun run;
  const auto refs = engine_references(p, in, run.tally);
  run.compression_ratio = reference_ratio(in, refs);
  const u32 clients = static_cast<u32>(p.u("clients"));
  Service svc(p, tr, in, refs, clients, run.tally);
  run.setup_s = svc.setup(static_cast<u32>(p.u("setup_reps")));

  run.ops.op_bytes = in[0].bytes();
  const u64 start = now_ns();
  const u64 deadline = start + static_cast<u64>(seconds * 1e9);
  Recorder rec(run.ops, start);
  std::vector<std::thread> threads;
  for (u32 c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::CereszClient& client = svc.client(c);
      try {
        for (u64 k = 0; now_ns() < deadline; ++k) {
          const std::size_t idx = (c + k) % in.size();
          u64 t0 = now_ns();
          const auto stream = client.compress(in[idx].values, bound_of(p));
          rec.compress(seconds_since(t0));
          svc.check_compress(idx, stream);
          t0 = now_ns();
          const auto values = client.decompress(stream);
          rec.decompress(seconds_since(t0));
          svc.check_decompress(idx, values);
        }
      } catch (const std::exception& e) {
        svc.fail(std::string("bulk client: ") + e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  run.service = svc.finish();
  return run;
}

WorkloadRun run_small_requests(const Params& p, const std::vector<Input>& in,
                               f64 seconds, Tracers* tr) {
  WorkloadRun run;
  const auto refs = engine_references(p, in, run.tally);
  run.compression_ratio = reference_ratio(in, refs);
  const u32 conns = static_cast<u32>(p.u("connections"));
  Service svc(p, tr, in, refs, conns, run.tally);
  run.setup_s = svc.setup(static_cast<u32>(p.u("setup_reps")));

  // Fixed-interval schedule: request i is due at start + i / rate and
  // alternates compress / decompress over the inputs. A connection takes
  // the next request, sleeps until it is due, and the latency counts
  // from the due time, so a stall delays every request behind it.
  const f64 rate = p.f("rate_per_s");
  const u64 total = std::max<u64>(10, static_cast<u64>(seconds * rate));
  const u64 interval_ns = static_cast<u64>(1e9 / rate);
  std::atomic<u64> next{0};
  std::vector<f64> lateness(total, 0.0);  // by schedule index; one writer each
  const u64 start = now_ns() + 1'000'000;
  run.ops.op_bytes = in[0].bytes();
  Recorder rec(run.ops, start);
  std::vector<std::thread> threads;
  for (u32 c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      net::CereszClient& client = svc.client(c);
      try {
        for (u64 i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
          const u64 due = start + i * interval_ns;
          const u64 now = now_ns();
          if (now < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          }
          lateness[i] = static_cast<f64>(now_ns() - due) * 1e-9;
          const std::size_t idx = (i / 2) % in.size();
          if (i % 2 == 0) {
            const auto stream = client.compress(in[idx].values, bound_of(p));
            rec.compress(seconds_since(due));
            svc.check_compress(idx, stream);
          } else {
            const auto values = client.decompress(refs[idx].stream);
            rec.decompress(seconds_since(due));
            svc.check_decompress(idx, values);
          }
        }
      } catch (const std::exception& e) {
        svc.fail(std::string("open-loop client: ") + e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  const f64 wall = seconds_since(start);
  run.service = svc.finish();
  std::printf("# open loop: offered %.1f req/s, completed %.1f req/s\n", rate,
              static_cast<f64>(total) / wall);

  // A stall the service recovers from shows in the latencies; a backlog
  // that grew until the end of the schedule means the offered rate was
  // not sustained, and the run is invalid.
  run.lateness_p50_ms = quantile(lateness, 0.5) * 1e3;
  run.lateness_p99_ms = quantile(lateness, 0.99) * 1e3;
  run.lateness_max_ms = quantile(lateness, 1.0) * 1e3;
  const std::vector<f64> tail(lateness.end() - static_cast<std::ptrdiff_t>(total / 10),
                              lateness.end());
  run.lateness_tail_ms = median(tail) * 1e3;
  if (run.lateness_tail_ms > p.f("max_lateness_ms")) {
    run.tally.invalid = true;
    run.tally.notes.push_back("open-loop generator fell behind its schedule");
  }
  return run;
}

void MapperSpans::absorb(const obs::Tracer& tracer) {
  f64 root = 0.0, sim = 0.0, assemble = 0.0;
  for (const obs::TraceEvent& ev : tracer.snapshot_events()) {
    if (ev.pid != obs::kHostPid || ev.phase != 'X') continue;
    const std::string_view name(ev.name);
    const f64 s = static_cast<f64>(ev.dur_ns) * 1e-9;
    if (name == "mapper.compress" || name == "mapper.decompress") {
      root += s;
      ++calls;
    } else if (name == "mapper.fabric_run") {
      sim += s;
    } else if (name == "mapper.assemble") {
      assemble += s;
    }
  }
  // The fabric's per-PE spans share the caller's ring, so the planning
  // spans recorded before the simulation may be overwritten; planning is
  // taken as the call's time outside simulation and assembly instead.
  sim_s += sim;
  assemble_s += assemble;
  plan_s += root - sim - assemble;
}

namespace {

/// Events kept per recording thread of a traced mapper call: the tail of
/// the per-PE fabric timeline, enough to inspect one pipeline round.
constexpr std::size_t kMapperTraceRing = std::size_t{1} << 14;

/// Run `fn(mapper)` on a mapper of its own. When traced, the mapper gets
/// a fresh tracer for this one call (the fabric's per-PE timeline would
/// otherwise push older calls' spans out of the rings); its spans are
/// absorbed and the tracer is kept as the run's last mapper trace.
template <class Fn>
auto mapper_call(const Params& p, u32 sim_threads, Tracers* tr,
                 MapperSpans& spans, Fn&& fn) {
  if (tr == nullptr) {
    const mapping::WaferMapper mapper(mapper_options(p, sim_threads, nullptr));
    return fn(mapper);
  }
  auto tracer = std::make_unique<obs::Tracer>(kMapperTraceRing);
  tracer->set_process_name(obs::kHostPid, "wafer_mapper");
  const mapping::WaferMapper mapper(mapper_options(p, sim_threads, tracer.get()));
  auto result = fn(mapper);
  spans.absorb(*tracer);
  tr->mapper = std::move(tracer);
  return result;
}

/// The host codec's stream and reconstruction: what the wafer must match.
struct CodecReference {
  core::CompressionResult compressed;
  std::vector<f32> values;
};

CodecReference codec_reference(const Params& p, const Input& x, Tally& tally) {
  const core::StreamCodec codec;
  CodecReference ref;
  ref.compressed = codec.compress(x.values, bound_of(p));
  ref.values = codec.decompress(ref.compressed.stream);
  if (ref.compressed.eps_abs != x.eps) {
    tally.fail(x.label + ": codec resolved another bound");
  }
  return ref;
}

void check_wafer(const Input& x, const CodecReference& ref,
                 const mapping::WaferRunResult& c,
                 const mapping::WaferRunResult& d, Tally& tally) {
  tally.attempted += 2;
  if (c.extrapolated || d.extrapolated) tally.fail("wafer run was extrapolated");
  if (!same_bytes(c.stream, ref.compressed.stream)) {
    tally.fail(x.label + ": wafer stream differs from StreamCodec");
  }
  if (!same_values(d.output, ref.values)) {
    tally.fail(x.label + ": wafer output differs from StreamCodec");
  }
  tally.check_bound(x, d.output);
}

}  // namespace

WaferPair simulate_pair(const Params& p, const Input& x, Tracers* tr,
                        MapperSpans& spans, Tally& tally) {
  const CodecReference ref = codec_reference(p, x, tally);
  const u32 threads = static_cast<u32>(p.u("sim_threads"));
  const auto c = mapper_call(p, threads, tr, spans, [&](const auto& m) {
    return m.compress(x.values, bound_of(p));
  });
  const auto d = mapper_call(p, threads, tr, spans, [&](const auto& m) {
    return m.decompress(c.stream);
  });
  WaferPair pair;
  pair.compress_cycles = c.makespan;
  pair.decompress_cycles = d.makespan;
  pair.events = c.run_stats.events_processed + d.run_stats.events_processed;
  check_wafer(x, ref, c, d, tally);
  return pair;
}

f64 time_wafer_compress(const Params& p, const Input& x, u32 sim_threads) {
  MapperSpans unused;
  const u64 t0 = now_ns();
  (void)mapper_call(p, sim_threads, nullptr, unused, [&](const auto& m) {
    return m.compress(x.values, bound_of(p));
  });
  return seconds_since(t0);
}

}  // namespace perfbench
