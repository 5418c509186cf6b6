// Stage 1: pre-quantization — the only lossy step of CereSZ.
//
// p_i = round(e_i / 2ε), reconstructed as e'_i = p_i · 2ε, guaranteeing
// |e_i - e'_i| ≤ ε. Following the paper's implementation (Section 4.2) the
// division is a multiplication by the precomputed reciprocal of 2ε and the
// rounding is an addition of 0.5 followed by a floor; the two halves are
// exposed separately because they are distinct pipeline sub-stages with
// very different cycle costs (Table 2).
//
// Kernel dispatch: prequant and dequant run four f64 lanes of AVX2 when
// the CPU has it (detected once at runtime, common/cpu_features.h) and
// the scalar reference in namespace `scalar` otherwise. The vector path
// keeps the multiply, the +0.5 and the floor as separate IEEE operations
// (no FMA: the ε argument relies on each rounding), so both paths write
// identical values and throw the same Error for the same input;
// tests/test_kernels_dispatch.cpp enforces this. The REL-bound range
// pass (min_max) is dispatched the same way.
#pragma once

#include <span>

#include "common/types.h"

namespace ceresz::core {

/// Sub-stage 1a (Multiplication): scratch_i = e_i · (1/2ε).
void prequant_multiply(std::span<const f32> input, std::span<f64> scratch,
                       f64 recip_two_eps);

/// Sub-stage 1b (Addition): p_i = floor(scratch_i + 0.5).
/// Throws if a quantized value does not fit in 32 bits: "non-finite input
/// value" when scratch_i is NaN or infinite, otherwise "the error bound
/// is too small for this data's magnitude".
void prequant_add_floor(std::span<const f64> scratch, std::span<i32> output);

/// Fused form of the two sub-stages. The whole span is range-checked
/// once; on failure it is rescanned and the Error says "non-finite input
/// value" if any input is NaN or infinite, otherwise that the error bound
/// is too small. `output` is unspecified after a throw.
void prequant(std::span<const f32> input, std::span<i32> output, f64 two_eps);

/// Inverse: e'_i = p_i · 2ε.
void dequant(std::span<const i32> input, std::span<f32> output, f64 two_eps);

/// Smallest and largest value of a field: the range a value-range
/// relative (REL) bound scales by.
struct MinMax {
  f64 min = 0.0;
  f64 max = 0.0;

  f64 range() const { return max - min; }
};

/// The min and max of a non-empty `input`, exactly as the sequential scan
/// `lo = hi = x_0; lo = x_i < lo ? x_i : lo; hi = x_i > hi ? x_i : hi`
/// computes them: a NaN first element propagates into both, a later NaN
/// is ignored, and of the equal values -0 and +0 the first one seen
/// wins. Runs eight f32 lanes of AVX2 when the CPU has it.
MinMax min_max(std::span<const f32> input);

/// Scalar reference implementations of the dispatched kernels above.
namespace scalar {
void prequant(std::span<const f32> input, std::span<i32> output, f64 two_eps);
void dequant(std::span<const i32> input, std::span<f32> output, f64 two_eps);
MinMax min_max(std::span<const f32> input);
}  // namespace scalar

}  // namespace ceresz::core
