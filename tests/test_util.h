// Shared helpers for the CereSZ test suite.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/types.h"

namespace ceresz::test {

/// Smooth sine wave plus mild noise: typical "scientific" data.
inline std::vector<f32> smooth_signal(std::size_t n, u64 seed = 7,
                                      f64 noise = 0.01) {
  Rng rng(seed);
  std::vector<f32> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const f64 x = static_cast<f64>(i) / 64.0;
    v[i] = static_cast<f32>(std::sin(x) + 0.4 * std::cos(2.7 * x) +
                            noise * rng.next_gaussian());
  }
  return v;
}

/// Uniform random values in [lo, hi): worst case for prediction.
inline std::vector<f32> random_signal(std::size_t n, u64 seed = 11,
                                      f64 lo = -1.0, f64 hi = 1.0) {
  Rng rng(seed);
  std::vector<f32> v(n);
  for (auto& x : v) x = static_cast<f32>(rng.uniform(lo, hi));
  return v;
}

/// Mostly-zero signal with a few bursts: exercises the zero-block path.
inline std::vector<f32> sparse_signal(std::size_t n, u64 seed = 13,
                                      f64 density = 0.05) {
  Rng rng(seed);
  std::vector<f32> v(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_double() < density) {
      v[i] = static_cast<f32>(rng.uniform(-100.0, 100.0));
    }
  }
  return v;
}

/// Assert-friendly max |a - b|.
inline f64 max_err(std::span<const f32> a, std::span<const f32> b) {
  f64 worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<f64>(a[i]) - b[i]));
  }
  return worst;
}

/// Half an f32 ulp at the data's largest magnitude: the unavoidable output
/// representation error of any single-precision codec. When ε approaches
/// the data's ulp, the reconstruction can miss the bound by up to this
/// much even though the quantization itself is exact.
inline f64 f32_ulp_slack(std::span<const f32> data) {
  f32 amax = 0.0f;
  for (f32 v : data) amax = std::max(amax, std::fabs(v));
  const f32 next = std::nextafter(amax, 4.0f * amax + 1.0f);
  return (static_cast<f64>(next) - amax) / 2.0;
}

/// The median of `samples` (the upper middle one for an even count).
inline f64 median(std::vector<f64> samples) {
  const auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

/// The kind of the ceresz::Error `fn` throws; nullopt if it returns.
template <class Fn>
std::optional<ErrorKind> error_kind(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.kind();
  }
  return std::nullopt;
}

}  // namespace ceresz::test
