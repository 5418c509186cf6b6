// CereSZ benchmark driver.
//
//   ceresz_perfbench --workload W --seed N --seconds S --trace 0|1
//                    --<param> <value> ...
//
// The pinned parameters come from perfbench/config.json (run.py passes
// them). --trace 0 measures the workload untraced and prints the
// end-to-end metrics; --trace 1 measures it untraced and then traced,
// probes every layer on the workload's inputs, prints the per-layer
// metrics, and writes the spans to Chrome trace files under .bench_out/.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Any failed check makes the exit code 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "layers.h"
#include "obs/analysis/stitch.h"
#include "obs/analysis/trace_analysis.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// What the pinned wafer simulates for a workload: a leading slab of
/// every input, joined into one field.
Input wafer_input(const Params& p, const std::vector<Input>& in) {
  std::vector<f32> joined;
  for (const Input& x : in) {
    const std::size_t n = std::min<std::size_t>(x.values.size(), p.u("sim_slab_elems"));
    joined.insert(joined.end(), x.values.begin(), x.values.begin() + n);
  }
  return make_input("joined", std::move(joined), p.f("rel"));
}

WorkloadRun measure(const Params& p, const std::string& workload,
                    const std::vector<Input>& in, f64 seconds, Tracers* tr) {
  WorkloadRun run;
  if (workload == "bulk_fields") {
    run = run_bulk_fields(p, in, seconds, tr);
  } else if (workload == "small_requests") {
    run = run_small_requests(p, in, seconds, tr);
  } else {
    CERESZ_FAIL("unknown workload " + workload);
  }
  // The service's own peak: the simulated mesh below holds far more.
  run.peak_rss_mb = peak_rss_mb();

  const Input sim_input = wafer_input(p, in);
  run.wafer = simulate_pair(p, sim_input, tr, run.mapper_spans, run.tally);
  // Simulated cycles are exact: a seed with recorded values must
  // reproduce them, any other seed the same pair simulated again.
  WaferPair expected;
  if (p.has("expect_compress_cycles")) {
    expected = {p.u("expect_compress_cycles"), p.u("expect_decompress_cycles"),
                run.wafer.events};
  } else {
    MapperSpans unused;
    expected = simulate_pair(p, sim_input, nullptr, unused, run.tally);
  }
  if (!(run.wafer == expected)) {
    run.tally.fail("simulated cycles differ from the expected values");
  }
  if (run.ops.compress.empty() || run.ops.decompress.empty()) {
    run.tally.fail("no operation completed");
  }
  return run;
}

/// Median over `windows` equal time slices of the measurement of
/// `stat(latencies of the slice)`: a stall of the host in one slice moves
/// one slice, not the reported value.
template <class Stat>
f64 windowed(const std::vector<Sample>& samples, u32 windows, Stat&& stat) {
  f64 span = 0.0;
  for (const Sample& s : samples) span = std::max(span, s.done_s);
  std::vector<std::vector<f64>> slices(windows);
  for (const Sample& s : samples) {
    const auto k = static_cast<std::size_t>(s.done_s / span * windows);
    slices[std::min<std::size_t>(k, windows - 1)].push_back(s.latency_s);
  }
  std::vector<f64> values;
  for (const auto& slice : slices) {
    if (!slice.empty()) values.push_back(stat(slice));
  }
  return median(values);
}

/// Uncompressed GB per wall second of the operations in flight during
/// each of `windows` equal time slices, median over the slices. Each
/// operation's bytes are spread evenly over its latency, so every
/// operation counts, in the slices it overlapped.
f64 windowed_gbps(const std::vector<Sample>& samples, u64 op_bytes, u32 windows) {
  f64 span = 0.0;
  for (const Sample& s : samples) span = std::max(span, s.done_s);
  const f64 width = span / windows;
  std::vector<f64> bytes(windows, 0.0);
  for (const Sample& s : samples) {
    const f64 begin = std::max(0.0, s.done_s - s.latency_s);
    for (u32 k = 0; k < windows; ++k) {
      const f64 lo = std::max(begin, k * width);
      const f64 hi = std::min(s.done_s, (k + 1) * width);
      if (hi > lo) bytes[k] += static_cast<f64>(op_bytes) * (hi - lo) / (s.done_s - begin);
    }
  }
  std::vector<f64> gbps;
  for (const f64 b : bytes) gbps.push_back(b / width * 1e-9);
  return median(gbps);
}

f64 p50_ms(const std::vector<f64>& lat) { return quantile(lat, 0.5) * 1e3; }
f64 p99_ms(const std::vector<f64>& lat) { return quantile(lat, 0.99) * 1e3; }

/// Latency percentiles are host-sensitive on shared machines, so the
/// tail is a per-layer figure; the end-to-end set holds the medians.
void add_tails(const Params& p, const WorkloadRun& r, Report& out) {
  const u32 w = static_cast<u32>(p.u("windows"));
  out.add("compress_p99_ms", windowed(r.ops.compress, w, p99_ms), "ms");
  out.add("decompress_p99_ms", windowed(r.ops.decompress, w, p99_ms), "ms");
}

Report end_to_end(const Params& p, const WorkloadRun& r) {
  Report out;
  const u32 w = static_cast<u32>(p.u("windows"));
  out.add("compress_gbps", windowed_gbps(r.ops.compress, r.ops.op_bytes, w), "GB/s");
  out.add("decompress_gbps", windowed_gbps(r.ops.decompress, r.ops.op_bytes, w), "GB/s");
  out.add("compress_p50_ms", windowed(r.ops.compress, w, p50_ms), "ms");
  out.add("decompress_p50_ms", windowed(r.ops.decompress, w, p50_ms), "ms");
  out.add("compression_ratio", r.compression_ratio, "x");
  out.add("setup_s", median(r.setup_s), "s");
  out.add("peak_rss_mb", r.peak_rss_mb, "MiB");
  out.add("sim_compress_cycles", static_cast<f64>(r.wafer.compress_cycles), "cycles");
  out.add("sim_decompress_cycles", static_cast<f64>(r.wafer.decompress_cycles), "cycles");
  std::printf("# samples: %zu compress, %zu decompress in %u windows, %zu set-ups\n",
              r.ops.compress.size(), r.ops.decompress.size(), w, r.setup_s.size());
  if (r.lateness_max_ms > 0.0) {
    std::printf("# generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms, "
                "last tenth of the schedule %.3f ms%s\n",
                r.lateness_p50_ms, r.lateness_p99_ms, r.lateness_max_ms,
                r.lateness_tail_ms, r.tally.invalid ? " (fell behind: run invalid)" : "");
  }
  return out;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f.good()) CERESZ_FAIL("cannot write " + path.string());
  std::printf("# trace written: %s\n", path.string().c_str());
}

void write_traces(const std::string& workload, u64 seed, const Tracers& tr) {
  namespace an = obs::analysis;
  const std::filesystem::path dir = ".bench_out";
  std::filesystem::create_directories(dir);
  const std::string stem = workload + "-seed" + std::to_string(seed);
  const an::TraceData client = an::from_tracer(*tr.client);
  const an::TraceData server = an::from_tracer(*tr.server);
  write_file(dir / (stem + "-service.json"),
             an::merged_chrome_trace_json(client, server, an::stitch_traces(client, server)));
  if (tr.mapper) write_file(dir / (stem + "-mapper.json"), tr.mapper->chrome_trace_json());
  write_file(dir / (stem + "-probes.json"), tr.probes->chrome_trace_json());
}

int finish(const Report& report, const Tally& tally) {
  for (const std::string& note : tally.notes) std::printf("# FAILED: %s\n", note.c_str());
  std::string json = "{\"correct\": ";
  json += tally.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(std::min(tally.failed, tally.attempted));
  json += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const Metric& m : report.metrics()) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return tally.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "usage: ceresz_perfbench --workload W --seed N "
                           "--seconds S --trace 0|1 [--param value ...]\n");
      return 2;
    }
    p.set(key.substr(2), argv[i + 1]);
  }
  try {
    const std::string workload = p.str("workload");
    const u64 seed = p.u("seed");
    const f64 seconds = p.f("seconds");
    const bool traced = p.u("trace") != 0;
    const std::vector<Input> inputs =
        make_inputs(p.str("inputs"), seed, p.u("field_elems"), p.f("rel"));

    WorkloadRun plain = measure(p, workload, inputs, seconds, nullptr);
    if (!traced) {
      const Report e2e = end_to_end(p, plain);
      return finish(e2e, plain.tally);
    }

    Tracers tr(p.u("server_trace_ring"));
    const WorkloadRun with = measure(p, workload, inputs, p.f("trace_seconds"), &tr);
    Tally tally = plain.tally;
    tally.merge(with.tally);
    const u32 sim_threads = static_cast<u32>(p.u("sim_threads"));
    const Input sim_input = wafer_input(p, inputs);
    const f64 sim_1 = time_wafer_compress(p, sim_input, 1);
    const f64 sim_n = time_wafer_compress(p, sim_input, sim_threads);

    Report layers;
    add_tails(p, plain, layers);
    measure_layers({p, inputs, plain, with, tr, sim_1 / (sim_threads * sim_n)}, layers, tally);
    layers.add("bound_violations", static_cast<f64>(tally.violations), "count");
    layers.add("failed_frac",
               tally.attempted > 0
                   ? static_cast<f64>(tally.failed) / static_cast<f64>(tally.attempted)
                   : 1.0,
               "frac");
    write_traces(workload, seed, tr);
    return finish(layers, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ceresz_perfbench: %s\n", e.what());
    return 1;
  }
}
