#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/error.h"
#include "common/timer.h"

namespace perfbench {

const std::string& Params::str(const std::string& key) const {
  const auto it = values_.find(key);
  CERESZ_CHECK(it != values_.end(), "perfbench: missing parameter --" + key);
  return it->second;
}

u64 Params::u(const std::string& key) const {
  return std::strtoull(str(key).c_str(), nullptr, 10);
}

f64 Params::f(const std::string& key) const {
  return std::strtod(str(key).c_str(), nullptr);
}

namespace {

data::DatasetId dataset_id(const std::string& name) {
  if (name == "cesm") return data::DatasetId::kCesmAtm;
  if (name == "hurricane") return data::DatasetId::kHurricane;
  if (name == "qmcpack") return data::DatasetId::kQmcpack;
  if (name == "nyx") return data::DatasetId::kNyx;
  if (name == "rtm") return data::DatasetId::kRtm;
  if (name == "hacc") return data::DatasetId::kHacc;
  CERESZ_FAIL("perfbench: unknown dataset '" + name + "'");
}

/// Smallest generator scale whose field has at least `elems` elements
/// (generators clamp every scaled dimension to >= 8).
f64 scale_for(const data::DatasetSpec& spec, u64 elems) {
  const auto count = [&](f64 s) {
    u64 n = 1;
    for (std::size_t d : spec.dims_generated) {
      n *= static_cast<u64>(std::max<long long>(8, std::llround(d * s)));
    }
    return n;
  };
  const f64 base = static_cast<f64>(count(1.0));
  f64 s = std::pow(static_cast<f64>(elems) / base,
                   1.0 / static_cast<f64>(spec.dims_generated.size()));
  while (count(s) < elems) s *= 1.01;
  return s;
}

}  // namespace

Input make_input(std::string label, std::vector<f32> values, f64 rel) {
  CERESZ_CHECK(!values.empty(), "perfbench: empty input " + label);
  Input x;
  x.label = std::move(label);
  x.values = std::move(values);
  const auto [lo, hi] = std::minmax_element(x.values.begin(), x.values.end());
  x.eps = core::ErrorBound::relative(rel).resolve(static_cast<f64>(*hi) -
                                                  static_cast<f64>(*lo));
  const f32 amax = std::max(std::fabs(*lo), std::fabs(*hi));
  x.slack =
      (static_cast<f64>(std::nextafter(amax, 4.0f * amax + 1.0f)) - amax) / 2.0;
  return x;
}

std::vector<Input> make_inputs(const std::string& spec, u64 seed, u64 elems,
                               f64 rel) {
  std::vector<Input> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    CERESZ_CHECK(colon != std::string::npos,
                 "perfbench: input must be dataset:field, got " + item);
    const data::DatasetId id = dataset_id(item.substr(0, colon));
    const u32 field = static_cast<u32>(std::stoul(item.substr(colon + 1)));
    data::Field f = data::generate_field(
        id, field, seed, scale_for(data::dataset_spec(id), elems));
    f.values.resize(elems);
    out.push_back(make_input(item, std::move(f.values), rel));
  }
  CERESZ_CHECK(!out.empty(), "perfbench: no inputs");
  return out;
}

u64 bound_violations(const Input& orig, std::span<const f32> recon) {
  if (recon.size() != orig.values.size()) return orig.values.size();
  const f64 limit = orig.eps + orig.slack;
  u64 bad = 0;
  for (std::size_t i = 0; i < recon.size(); ++i) {
    const f64 err = std::fabs(static_cast<f64>(orig.values[i]) - recon[i]);
    bad += !(err <= limit);
  }
  return bad;
}

bool same_bytes(std::span<const u8> a, std::span<const u8> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

bool same_values(std::span<const f32> a, std::span<const f32> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

f64 quantile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}

f64 median(std::vector<f64> v) { return quantile(std::move(v), 0.5); }

f64 mean(const std::vector<f64>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<f64>(v.size());
}

f64 seconds_since(u64 start_ns) {
  return static_cast<f64>(now_ns() - start_ns) * 1e-9;
}

f64 peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void Report::add(const std::string& name, f64 value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Tally::fail(const std::string& why) {
  ++failed;
  if (notes.size() < 8) notes.push_back(why);
}

void Tally::check_bound(const Input& orig, std::span<const f32> recon) {
  const u64 bad = bound_violations(orig, recon);
  if (bad == 0) return;
  violations += bad;
  fail(orig.label + ": " + std::to_string(bad) + " elements outside the bound");
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  violations += other.violations;
  invalid = invalid || other.invalid;
  for (const auto& n : other.notes) {
    if (notes.size() < 8) notes.push_back(n);
  }
}

Tracers::Tracers(std::size_t server_ring)
    : client(std::make_unique<obs::Tracer>()),
      server(std::make_unique<obs::Tracer>(server_ring)),
      probes(std::make_unique<obs::Tracer>()) {
  client->set_process_name(obs::kHostPid, "perfbench_client");
  server->set_process_name(obs::kHostPid, "ceresz_server");
  probes->set_process_name(obs::kHostPid, "perfbench_probes");
}

}  // namespace perfbench
