// Shared plumbing of the CereSZ benchmark: parameters, inputs, the
// correctness predicate, order statistics, and the metric report.
//
// The benchmark only calls the library's public entry points (core stage
// kernels, BlockCodec, ParallelEngine, ServiceServer/CereszClient,
// WaferMapper) and reads the spans those already record when handed a
// tracer; it adds no instrumentation to the library.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "data/generators.h"
#include "obs/trace.h"

namespace perfbench {

using namespace ceresz;

/// Flat `--key value` parameters (perfbench/config.json, flattened by
/// run.py). Every lookup of a missing key throws: the pinned
/// configuration lives in one place, never in defaults here.
class Params {
 public:
  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  const std::string& str(const std::string& key) const;
  u64 u(const std::string& key) const;
  f64 f(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// One input field of a workload: `dataset:field_index` from the
/// configuration, generated from the run's seed and cut to `elems`.
struct Input {
  std::string label;  ///< e.g. "hacc:0"
  std::vector<f32> values;
  f64 eps = 0.0;      ///< resolved absolute bound for this field
  f64 slack = 0.0;    ///< half an f32 ulp at the field's largest magnitude

  u64 bytes() const { return values.size() * sizeof(f32); }
  u64 blocks() const { return values.size() / 32; }
};

/// An input from given values: resolves the REL bound and the slack.
Input make_input(std::string label, std::vector<f32> values, f64 rel);

/// Generate the comma-separated `dataset:field` list at `elems` elements
/// each (a leading slab of a field generated large enough).
std::vector<Input> make_inputs(const std::string& spec, u64 seed, u64 elems,
                               f64 rel);

/// Elements of `recon` farther than eps + slack from `orig` (the
/// documented f32 half-ulp slack); a size mismatch counts every element.
u64 bound_violations(const Input& orig, std::span<const f32> recon);

bool same_bytes(std::span<const u8> a, std::span<const u8> b);
bool same_values(std::span<const f32> a, std::span<const f32> b);

/// Linear-interpolated quantile (q in [0,1]) of unsorted samples.
f64 quantile(std::vector<f64> v, f64 q);
f64 median(std::vector<f64> v);
f64 mean(const std::vector<f64>& v);

f64 seconds_since(u64 start_ns);

/// Peak resident set of this process in MiB (VmHWM).
f64 peak_rss_mb();

/// Ordered metric report; printed as the `metrics` object of the final
/// JSON line.
struct Metric {
  std::string name;
  f64 value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, f64 value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Correctness and accounting of one workload run.
struct Tally {
  u64 attempted = 0;
  u64 failed = 0;      ///< errors, refusals, byte mismatches
  u64 violations = 0;  ///< elements outside the bound
  bool invalid = false;  ///< e.g. the open-loop generator fell behind
  std::vector<std::string> notes;

  void fail(const std::string& why);
  /// Count elements of `recon` outside the bound of `orig`; any makes
  /// the operation a failure.
  void check_bound(const Input& orig, std::span<const f32> recon);
  void merge(const Tally& other);
  bool ok() const { return failed == 0 && violations == 0 && !invalid; }
};

/// Tracers of one traced run. The server's ring is small: the engine
/// starts a pool per request and every pool thread gets its own ring.
/// `mapper` holds the last traced WaferMapper call; `probes` the
/// benchmark's own spans around each layer probe.
struct Tracers {
  std::unique_ptr<obs::Tracer> client;
  std::unique_ptr<obs::Tracer> server;
  std::unique_ptr<obs::Tracer> mapper;
  std::unique_ptr<obs::Tracer> probes;

  explicit Tracers(std::size_t server_ring);
};

}  // namespace perfbench
