// ceresz — command-line front end for the CereSZ library.
//
//   ceresz compress   <in.f32> <out.csz> [--rel 1e-3 | --abs 0.01]
//   ceresz decompress <in.csz> <out.f32>
//   ceresz info       <in.csz>
//   ceresz simulate   <in.f32> [--rows R --cols C --pl N] [--rel 1e-3]
//
// compress/decompress operate on raw little-endian f32 files (the
// SDRBench convention); simulate additionally runs the data through the
// simulated wafer and reports cycle-accurate throughput. compress always
// writes the parallel engine's chunked CSZC container (byte-identical at
// every --threads); decompress and info also accept the single-stream
// CSZ1 format of core::StreamCodec.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "ceresz.h"

namespace {

using namespace ceresz;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ceresz compress   <in.f32> <out.csz> [--rel B | --abs B]"
               " [--threads N] [--chunk-elems N]\n"
               "  ceresz decompress <in.csz> <out.f32> [--threads N]"
               " [--lenient]\n"
               "  ceresz info       <in.csz>\n"
               "  ceresz simulate   <in.f32> [--rows R --cols C --pl N]"
               " [--rel B]\n"
               "  ceresz archive    <out.csza> <in1.f32> [in2.f32 ...]"
               " [--rel B]\n"
               "  ceresz list       <in.csza>\n"
               "  ceresz extract    <in.csza> <field-name> <out.f32>\n"
               "\n"
               "  --threads N      worker threads; compress writes the same\n"
               "                   chunked CSZC container at every N\n"
               "  --chunk-elems N  elements per chunk (multiple of 32)\n"
               "  --lenient        zero-fill corrupt chunks on decompress\n"
               "                   instead of aborting; exits 3 (instead of\n"
               "                   0) when any chunk had to be zero-filled\n"
               "  --trace-out F    write a Chrome trace-event JSON timeline\n"
               "                   (open in Perfetto / chrome://tracing)\n"
               "  --metrics-out F  write the run's metrics: Prometheus text\n"
               "                   if F ends in .prom, JSON otherwise\n"
               "  --stats-json F   write engine run stats as JSON (compress,\n"
               "                   and decompress of a CSZC container)\n"
               "\n"
               "exit codes: 0 success, 1 runtime error (bad stream, I/O),\n"
               "2 usage error, 3 lenient decompress recovered with losses\n");
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  core::ErrorBound bound = core::ErrorBound::relative(1e-3);
  u32 rows = 16, cols = 32, pl = 1;
  u32 threads = 1;
  u64 chunk_elems = engine::EngineOptions{}.chunk_elems;
  bool lenient = false;
  std::string trace_out;
  std::string metrics_out;
  std::string stats_json;
};

/// Per-invocation observability: the tracer exists only when --trace-out
/// was given, the registry is exported only when --metrics-out was given
/// (pre-declared with every layer's families so the export always
/// advertises the full set), and both are flushed once after the command
/// finishes.
struct Observability {
  std::optional<obs::Tracer> tracer;
  obs::MetricsRegistry registry;
  bool export_metrics = false;

  explicit Observability(const Args& args) {
    if (!args.trace_out.empty()) tracer.emplace();
    export_metrics = !args.metrics_out.empty();
    if (export_metrics) {
      engine::declare_engine_metrics(registry);
      wse::declare_fabric_metrics(registry);
      mapping::declare_mapper_metrics(registry);
      obs::declare_trace_metrics(registry);
    }
  }

  obs::Tracer* tracer_ptr() { return tracer ? &*tracer : nullptr; }
  obs::MetricsRegistry* metrics_ptr() {
    return export_metrics ? &registry : nullptr;
  }

  void flush(const Args& args) {
    if (tracer) {
      std::ofstream os(args.trace_out, std::ios::binary);
      CERESZ_CHECK(os.good(), "cannot open trace output file");
      tracer->write_chrome_trace(os);
      CERESZ_CHECK(os.good(), "failed writing trace output file");
    }
    if (export_metrics) {
      if (tracer) obs::export_trace_metrics(*tracer, registry);
      const auto snap = registry.snapshot();
      const std::string text = obs::is_prometheus_path(args.metrics_out)
                                   ? obs::to_prometheus(snap)
                                   : obs::to_json(snap);
      std::ofstream os(args.metrics_out, std::ios::binary);
      CERESZ_CHECK(os.good(), "cannot open metrics output file");
      os << text;
      CERESZ_CHECK(os.good(), "failed writing metrics output file");
    }
  }
};

void write_stats_json(const std::string& path,
                      const engine::EngineStats& s) {
  std::ofstream os(path, std::ios::binary);
  CERESZ_CHECK(os.good(), "cannot open stats output file");
  char buf[256];
  os << "{\n";
  std::snprintf(buf, sizeof(buf),
                "  \"threads\": %u,\n  \"chunks\": %llu,\n",
                s.threads, static_cast<unsigned long long>(s.chunks));
  os << buf;
  std::snprintf(
      buf, sizeof(buf),
      "  \"uncompressed_bytes\": %llu,\n  \"compressed_bytes\": %llu,\n",
      static_cast<unsigned long long>(s.uncompressed_bytes),
      static_cast<unsigned long long>(s.compressed_bytes));
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"compression_ratio\": %.6f,\n  \"wall_seconds\": %.9f,\n",
                s.compression_ratio(), s.wall_seconds);
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"throughput_gbps\": %.6f,\n"
                "  \"worker_utilization\": %.6f,\n",
                s.throughput_gbps(), s.worker_utilization());
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"queue_high_water\": %llu,\n  \"retries\": %llu,\n",
                static_cast<unsigned long long>(s.queue_high_water),
                static_cast<unsigned long long>(s.retries));
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"timeouts\": %llu,\n  \"worker_crashes\": %llu,\n"
                "  \"quarantined\": %llu,\n",
                static_cast<unsigned long long>(s.timeouts),
                static_cast<unsigned long long>(s.worker_crashes),
                static_cast<unsigned long long>(s.quarantined));
  os << buf;
  os << "  \"worker_busy_seconds\": [";
  for (std::size_t i = 0; i < s.worker_busy_seconds.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9f", i ? ", " : "",
                  s.worker_busy_seconds[i]);
    os << buf;
  }
  os << "]\n}\n";
  CERESZ_CHECK(os.good(), "failed writing stats output file");
}

engine::EngineOptions engine_options(const Args& args, Observability& o) {
  engine::EngineOptions opt;
  opt.threads = args.threads;
  opt.chunk_elems = args.chunk_elems;
  opt.lenient = args.lenient;
  opt.tracer = o.tracer_ptr();
  opt.metrics = o.metrics_ptr();
  return opt;
}

void print_engine_stats(const engine::EngineStats& stats) {
  std::printf("engine: %u thread(s), %llu chunk(s), %.3fs wall, "
              "%.2f GB/s, %.0f%% worker utilization, queue high-water %llu\n",
              stats.threads, static_cast<unsigned long long>(stats.chunks),
              stats.wall_seconds, stats.throughput_gbps(),
              100.0 * stats.worker_utilization(),
              static_cast<unsigned long long>(stats.queue_high_water));
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next_value = [&](f64& out) {
      if (i + 1 >= argc) return false;
      out = std::atof(argv[++i]);
      return out > 0.0;
    };
    auto next_string = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return !out.empty();
    };
    f64 v = 0.0;
    if (a == "--rel") {
      if (!next_value(v)) return false;
      args.bound = core::ErrorBound::relative(v);
    } else if (a == "--abs") {
      if (!next_value(v)) return false;
      args.bound = core::ErrorBound::absolute(v);
    } else if (a == "--rows") {
      if (!next_value(v)) return false;
      args.rows = static_cast<u32>(v);
    } else if (a == "--cols") {
      if (!next_value(v)) return false;
      args.cols = static_cast<u32>(v);
    } else if (a == "--pl") {
      if (!next_value(v)) return false;
      args.pl = static_cast<u32>(v);
    } else if (a == "--threads") {
      if (!next_value(v)) return false;
      args.threads = static_cast<u32>(v);
    } else if (a == "--chunk-elems") {
      if (!next_value(v)) return false;
      args.chunk_elems = static_cast<u64>(v);
    } else if (a == "--lenient") {
      args.lenient = true;
    } else if (a == "--trace-out") {
      if (!next_string(args.trace_out)) return false;
    } else if (a == "--metrics-out") {
      if (!next_string(args.metrics_out)) return false;
    } else if (a == "--stats-json") {
      if (!next_string(args.stats_json)) return false;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    } else {
      args.positional.push_back(a);
    }
  }
  return true;
}

std::vector<f32> load_f32(const std::string& path) {
  const auto bytes = io::read_bytes(path);
  CERESZ_CHECK(bytes.size() % sizeof(f32) == 0,
               "input file size is not a multiple of 4 bytes");
  std::vector<f32> values(bytes.size() / sizeof(f32));
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return values;
}

int cmd_compress(const Args& args, Observability& o) {
  if (args.positional.size() != 2) return usage();
  const auto values = load_f32(args.positional[0]);
  const engine::ParallelEngine eng(engine_options(args, o));
  const auto result = eng.compress(values, args.bound);
  io::write_bytes(args.positional[1], result.stream);
  std::printf("%zu values -> %s (ratio %.2fx, eps %g, %.1f%% zero blocks)\n",
              values.size(), fmt_bytes(result.stream.size()).c_str(),
              result.compression_ratio(), result.eps_abs,
              100.0 * result.stats.stream.zero_fraction());
  print_engine_stats(result.stats);
  if (!args.stats_json.empty()) write_stats_json(args.stats_json, result.stats);
  return 0;
}

int cmd_decompress(const Args& args, Observability& o) {
  if (args.positional.size() != 2) return usage();
  const auto stream = io::read_bytes(args.positional[0]);
  std::vector<f32> values;
  std::vector<u64> corrupt_chunks;
  if (engine::ParallelEngine::is_chunked_stream(stream)) {
    const engine::ParallelEngine eng(engine_options(args, o));
    auto result = eng.decompress(stream);
    print_engine_stats(result.stats);
    if (!args.stats_json.empty()) write_stats_json(args.stats_json, result.stats);
    values = std::move(result.values);
    corrupt_chunks = std::move(result.corrupt_chunks);
  } else {
    const core::StreamCodec codec;
    values = codec.decompress(stream);
  }
  std::vector<u8> bytes(values.size() * sizeof(f32));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  io::write_bytes(args.positional[1], bytes);
  std::printf("%s -> %zu values\n", fmt_bytes(stream.size()).c_str(),
              values.size());
  if (!corrupt_chunks.empty()) {
    // Partial recovery: the output was written, but some ranges are
    // zero-filled. Exit 3 so scripts can tell "recovered with losses"
    // (3) apart from "failed outright" (1) and "bad usage" (2).
    std::string list;
    for (u64 c : corrupt_chunks) {
      if (!list.empty()) list += ", ";
      list += std::to_string(c);
    }
    std::fprintf(stderr,
                 "decompress: %zu corrupt chunk(s) zero-filled: %s\n",
                 corrupt_chunks.size(), list.c_str());
    return 3;
  }
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const auto stream = io::read_bytes(args.positional[0]);
  if (engine::ParallelEngine::is_chunked_stream(stream)) {
    // Validating the header + table is enough to describe the container;
    // payload CRCs are the reader's per-chunk job.
    const auto parsed = io::parse_container(stream);
    const f64 ratio =
        static_cast<f64>(parsed.header.element_count * sizeof(f32)) /
        static_cast<f64>(stream.size());
    std::printf("valid CereSZ chunked stream: %llu values in %u chunk(s) "
                "of %llu, %s compressed, ratio %.2fx\n",
                static_cast<unsigned long long>(parsed.header.element_count),
                parsed.header.chunk_count,
                static_cast<unsigned long long>(parsed.header.chunk_elems),
                fmt_bytes(stream.size()).c_str(), ratio);
    return 0;
  }
  const core::StreamCodec codec;
  // Decompressing validates the whole stream; report what we learn.
  const auto values = codec.decompress(stream);
  const f64 ratio = static_cast<f64>(values.size() * sizeof(f32)) /
                    static_cast<f64>(stream.size());
  std::printf("valid CereSZ stream: %zu values, %s compressed, ratio %.2fx\n",
              values.size(), fmt_bytes(stream.size()).c_str(), ratio);
  return 0;
}

int cmd_simulate(const Args& args, Observability& o) {
  if (args.positional.size() != 1) return usage();
  const auto values = load_f32(args.positional[0]);
  mapping::MapperOptions opt;
  opt.rows = args.rows;
  opt.cols = args.cols;
  opt.pipeline_length = args.pl;
  opt.max_exact_rows = 1;
  opt.collect_output = false;
  opt.tracer = o.tracer_ptr();
  opt.metrics = o.metrics_ptr();
  const mapping::WaferMapper mapper(opt);
  const auto run = mapper.compress(values, args.bound);
  std::printf("mesh %ux%u, PL %u: makespan %llu cycles (%.3f ms), "
              "throughput %.3f GB/s%s\n",
              args.rows, args.cols, args.pl,
              static_cast<unsigned long long>(run.makespan),
              run.seconds * 1e3, run.throughput_gbps,
              run.extrapolated ? " (row-extrapolated)" : "");
  std::printf("plan: %u stage group(s), bottleneck %llu cycles, "
              "estimated fl %u\n",
              run.plan.length(),
              static_cast<unsigned long long>(run.plan.bottleneck_cycles()),
              run.profile.est_fixed_length);
  return 0;
}

int cmd_archive(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const core::StreamCodec codec;
  std::vector<data::Field> fields;
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    data::Field f;
    f.dataset = "cli";
    f.name = std::filesystem::path(args.positional[i]).filename().string();
    f.values = load_f32(args.positional[i]);
    f.dims = {f.values.size()};
    fields.push_back(std::move(f));
  }
  const io::Archive archive =
      io::Archive::compress_fields(fields, args.bound, codec);
  archive.save(args.positional[0]);
  std::printf("%zu field(s) -> %s (total ratio %.2fx)\n", fields.size(),
              args.positional[0].c_str(), archive.total_ratio());
  return 0;
}

int cmd_list(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const io::Archive archive = io::Archive::load(args.positional[0]);
  std::printf("%zu field(s), total ratio %.2fx\n", archive.size(),
              archive.total_ratio());
  for (const auto& entry : archive.entries()) {
    std::printf("  %-24s dims", entry.name.c_str());
    for (std::size_t d : entry.dims) std::printf(" %zu", d);
    std::printf("  %s  ratio %.2fx\n",
                fmt_bytes(entry.stream.size()).c_str(),
                entry.compression_ratio());
  }
  return 0;
}

int cmd_extract(const Args& args) {
  if (args.positional.size() != 3) return usage();
  const io::Archive archive = io::Archive::load(args.positional[0]);
  const auto idx = archive.find(args.positional[1]);
  if (!idx) {
    std::fprintf(stderr, "no field named '%s' in the archive\n",
                 args.positional[1].c_str());
    return 1;
  }
  const core::StreamCodec codec;
  const data::Field field = archive.decompress_field(*idx, codec);
  io::write_raw_f32(args.positional[2], field);
  std::printf("extracted %s: %zu values -> %s\n", field.name.c_str(),
              field.size(), args.positional[2].c_str());
  return 0;
}

}  // namespace

int run_command(const std::string& cmd, const Args& args, Observability& o) {
  if (cmd == "compress") return cmd_compress(args, o);
  if (cmd == "decompress") return cmd_decompress(args, o);
  if (cmd == "info") return cmd_info(args);
  if (cmd == "simulate") return cmd_simulate(args, o);
  if (cmd == "archive") return cmd_archive(args);
  if (cmd == "list") return cmd_list(args);
  if (cmd == "extract") return cmd_extract(args);
  return usage();
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  const std::string cmd = argv[1];
  try {
    Observability o(args);
    const int rc = run_command(cmd, args, o);
    // Flush even on the partial-recovery exit (3): a degraded run is
    // exactly when the trace and fault counters matter most.
    if (rc == 0 || rc == 3) o.flush(args);
    return rc;
  } catch (const ceresz::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
