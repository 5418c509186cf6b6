#include "core/prequant.h"

#include <algorithm>
#include <cmath>

#include "common/cpu_features.h"
#include "common/error.h"

#if CERESZ_X86_KERNELS
#include <immintrin.h>
#endif

namespace ceresz::core {

namespace {
// The quantization arithmetic runs in double precision so the ε guarantee
// of Section 3 is exact even at extreme magnitude ratios; the stored
// quantized values are 32-bit integers as on the PE.
constexpr f64 kMaxQuant = 2147483647.0;
constexpr f64 kMinQuant = -kMaxQuant - 1.0;

/// False for NaN as well as for values outside the i32 range.
bool in_range(f64 rounded) {
  return rounded >= kMinQuant && rounded <= kMaxQuant;
}

/// Both causes are the caller's: the input, or a bound too small for it.
[[noreturn]] void throw_out_of_range(bool finite_input) {
  detail::throw_error(
      __FILE__, __LINE__, "failure",
      finite_input
          ? "prequant: quantized value exceeds 32 bits; the error bound is "
            "too small for this data's magnitude"
          : "prequant: non-finite input value (NaN or infinity)",
      ErrorKind::kInvalidArgument);
}

/// Cold path of both prequant kernels: a block failed the range check,
/// so rescan it to tell bad input from a too-small error bound.
[[noreturn]] void report_prequant_failure(std::span<const f32> input) {
  throw_out_of_range(std::all_of(input.begin(), input.end(),
                                 [](f32 x) { return std::isfinite(x); }));
}

/// Writes every output, then returns whether all of them were in range.
bool prequant_scalar(const f32* in, std::size_t n, f64 recip, i32* out) {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const f64 rounded = std::floor(static_cast<f64>(in[i]) * recip + 0.5);
    ok &= in_range(rounded);
    out[i] = in_range(rounded) ? static_cast<i32>(rounded) : 0;
  }
  return ok;
}

void dequant_scalar(const i32* in, std::size_t n, f64 two_eps, f32* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<f32>(static_cast<f64>(in[i]) * two_eps);
  }
}

/// The sequential range scan, continued over in[0, n) from `acc`.
void min_max_continue(const f32* in, std::size_t n, MinMax& acc) {
  for (std::size_t i = 0; i < n; ++i) {
    const f64 v = in[i];
    if (v < acc.min) acc.min = v;
    if (v > acc.max) acc.max = v;
  }
}

MinMax min_max_scalar(const f32* in, std::size_t n) {
  MinMax acc{in[0], in[0]};
  min_max_continue(in + 1, n - 1, acc);
  return acc;
}

#if CERESZ_X86_KERNELS
// Four f64 lanes; the multiply, the +0.5 and the floor stay separate IEEE
// operations exactly as in the scalar code. "fma" is deliberately absent
// from the target: a fused multiply-add rounds once and would change
// quantized values near .5 boundaries.
#define CERESZ_AVX2 __attribute__((target("avx2")))

CERESZ_AVX2 bool prequant_avx2(const f32* in, std::size_t n, f64 recip,
                               i32* out) {
  const __m256d r = _mm256_set1_pd(recip);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d lo = _mm256_set1_pd(kMinQuant);
  const __m256d hi = _mm256_set1_pd(kMaxQuant);
  // Ordered compares are false for NaN, like the scalar check.
  __m256d ok = _mm256_cmp_pd(half, half, _CMP_EQ_OQ);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_cvtps_pd(_mm_loadu_ps(in + i));
    const __m256d q =
        _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(x, r), half));
    ok = _mm256_and_pd(ok, _mm256_and_pd(_mm256_cmp_pd(q, lo, _CMP_GE_OQ),
                                         _mm256_cmp_pd(q, hi, _CMP_LE_OQ)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_cvttpd_epi32(q));
  }
  const bool tail_ok = prequant_scalar(in + i, n - i, recip, out + i);
  return tail_ok && _mm256_movemask_pd(ok) == 0xf;
}

CERESZ_AVX2 void dequant_avx2(const i32* in, std::size_t n, f64 two_eps,
                              f32* out) {
  const __m256d t = _mm256_set1_pd(two_eps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_mul_pd(v, t)));
  }
  dequant_scalar(in + i, n - i, two_eps, out + i);
}

/// Eight lanes per vector, four vectors per step. _mm256_min_ps(x, acc)
/// is `x < acc ? x : acc`, the scan's own step, so a NaN x leaves a lane
/// alone and a NaN x_0 (every lane's start) stays. Lanes see their
/// elements out of order, so when the minimum (maximum) is zero the sign
/// of the first zero in the input decides it, as in the scan.
CERESZ_AVX2 MinMax min_max_avx2(const f32* in, std::size_t n) {
  MinMax acc{in[0], in[0]};
  std::size_t i = 0;
  if (n >= 32) {
    __m256 lo[4], hi[4];
    for (int k = 0; k < 4; ++k) lo[k] = hi[k] = _mm256_set1_ps(in[0]);
    for (; i + 32 <= n; i += 32) {
      for (int k = 0; k < 4; ++k) {
        const __m256 x = _mm256_loadu_ps(in + i + 8 * k);
        lo[k] = _mm256_min_ps(x, lo[k]);
        hi[k] = _mm256_max_ps(x, hi[k]);
      }
    }
    alignas(32) f32 lanes_lo[8];
    alignas(32) f32 lanes_hi[8];
    _mm256_store_ps(lanes_lo, _mm256_min_ps(_mm256_min_ps(lo[0], lo[1]),
                                            _mm256_min_ps(lo[2], lo[3])));
    _mm256_store_ps(lanes_hi, _mm256_max_ps(_mm256_max_ps(hi[0], hi[1]),
                                            _mm256_max_ps(hi[2], hi[3])));
    for (int k = 0; k < 8; ++k) {
      if (lanes_lo[k] < acc.min) acc.min = lanes_lo[k];
      if (lanes_hi[k] > acc.max) acc.max = lanes_hi[k];
    }
  }
  min_max_continue(in + i, n - i, acc);
  if (acc.min == 0.0 || acc.max == 0.0) {
    const f32 first_zero = *std::find(in, in + n, 0.0f);
    if (acc.min == 0.0) acc.min = first_zero;
    if (acc.max == 0.0) acc.max = first_zero;
  }
  return acc;
}

#undef CERESZ_AVX2
#endif

using PrequantKernel = bool (*)(const f32*, std::size_t, f64, i32*);
using DequantKernel = void (*)(const i32*, std::size_t, f64, f32*);
using MinMaxKernel = MinMax (*)(const f32*, std::size_t);

void prequant_with(PrequantKernel kernel, std::span<const f32> input,
                   std::span<i32> output, f64 two_eps) {
  CERESZ_CHECK(input.size() == output.size(), "prequant: size mismatch");
  CERESZ_CHECK(two_eps > 0.0, "prequant: error bound must be positive");
  if (!kernel(input.data(), input.size(), 1.0 / two_eps, output.data())) {
    report_prequant_failure(input);
  }
}

void dequant_with(DequantKernel kernel, std::span<const i32> input,
                  std::span<f32> output, f64 two_eps) {
  CERESZ_CHECK(input.size() == output.size(), "dequant: size mismatch");
  kernel(input.data(), input.size(), two_eps, output.data());
}

MinMax min_max_with(MinMaxKernel kernel, std::span<const f32> input) {
  CERESZ_CHECK(!input.empty(), "min_max: empty input");
  return kernel(input.data(), input.size());
}

}  // namespace

void prequant_multiply(std::span<const f32> input, std::span<f64> scratch,
                       f64 recip_two_eps) {
  CERESZ_CHECK(input.size() == scratch.size(),
               "prequant_multiply: size mismatch");
  for (std::size_t i = 0; i < input.size(); ++i) {
    scratch[i] = static_cast<f64>(input[i]) * recip_two_eps;
  }
}

void prequant_add_floor(std::span<const f64> scratch, std::span<i32> output) {
  CERESZ_CHECK(scratch.size() == output.size(),
               "prequant_add_floor: size mismatch");
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    const f64 rounded = std::floor(scratch[i] + 0.5);
    // ε is positive and finite, so a non-finite product means the input
    // was not finite.
    if (!in_range(rounded)) throw_out_of_range(std::isfinite(scratch[i]));
    output[i] = static_cast<i32>(rounded);
  }
}

void prequant(std::span<const f32> input, std::span<i32> output, f64 two_eps) {
  PrequantKernel kernel = prequant_scalar;
#if CERESZ_X86_KERNELS
  if (cpu::has_avx2()) kernel = prequant_avx2;
#endif
  prequant_with(kernel, input, output, two_eps);
}

void dequant(std::span<const i32> input, std::span<f32> output, f64 two_eps) {
  DequantKernel kernel = dequant_scalar;
#if CERESZ_X86_KERNELS
  if (cpu::has_avx2()) kernel = dequant_avx2;
#endif
  dequant_with(kernel, input, output, two_eps);
}

MinMax min_max(std::span<const f32> input) {
  MinMaxKernel kernel = min_max_scalar;
#if CERESZ_X86_KERNELS
  if (cpu::has_avx2()) kernel = min_max_avx2;
#endif
  return min_max_with(kernel, input);
}

namespace scalar {

void prequant(std::span<const f32> input, std::span<i32> output, f64 two_eps) {
  prequant_with(prequant_scalar, input, output, two_eps);
}

void dequant(std::span<const i32> input, std::span<f32> output, f64 two_eps) {
  dequant_with(dequant_scalar, input, output, two_eps);
}

MinMax min_max(std::span<const f32> input) {
  return min_max_with(min_max_scalar, input);
}

}  // namespace scalar

}  // namespace ceresz::core
