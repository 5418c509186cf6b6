// Stage 3: fixed-length encoding.
//
// Per block: store each element's sign as one packed bit, find the maximum
// absolute value, derive the number of effective bits ("fixed length"), and
// bit-shuffle: for every effective bit position k, gather the k-th bit of
// all elements into a contiguous bit-plane of L/8 bytes (Figure 8). A block
// of L elements with fixed length f therefore encodes into L/8 sign bytes
// plus f·L/8 payload bytes.
//
// The four sub-stages (Sign, Max, GetLength, Bit-shuffle) are exposed
// individually because the pipeline scheduler distributes them — and the
// per-bit slices of Bit-shuffle — across PEs (Section 4.2).
//
// Kernel dispatch: every function below except effective_bits runs an
// AVX2 kernel when the CPU has AVX2 (detected once at runtime,
// common/cpu_features.h) and the scalar reference otherwise; shuffle and
// unshuffle vectorize blocks whose size is a multiple of 32 and run the
// scalar kernel for other sizes. The namespace `scalar` exposes the
// reference under the same names so tests and benches can call both.
// The two paths perform the same argument checks (throwing the same
// Error) and write byte-identical output for every input, including
// residuals of ±INT32_MAX and INT32_MIN and magnitudes above 2^31 from a
// corrupt stream; tests/test_kernels_dispatch.cpp enforces this.
#pragma once

#include <span>

#include "common/types.h"

namespace ceresz::core {

/// Sub-stage "Sign": pack sign bits (1 = negative) into sign_bytes
/// (input.size()/8 bytes, LSB-first within each byte) and write absolute
/// values. Every |v| fits in u32, including |INT32_MIN| = 2^31.
void split_sign(std::span<const i32> input, std::span<u32> abs_out,
                std::span<u8> sign_bytes);

/// Sign and Max fused: split_sign, returning block_max of the absolute
/// values it wrote.
u32 split_sign_max(std::span<const i32> input, std::span<u32> abs_out,
                   std::span<u8> sign_bytes);

/// Sub-stage "Max": maximum of the absolute values (0 for an empty span).
u32 block_max(std::span<const u32> abs_values);

/// Sub-stage "GetLength": number of effective bits of `value`
/// (bit_width; 0 for value 0).
u32 effective_bits(u32 value);

/// Sub-stage "Bit-shuffle": scatter the low `fixed_length` bits of every
/// element into bit-planes. Plane k (k in [0, fixed_length)) occupies
/// L/8 bytes; element j's k-th bit lands in plane k, byte j/8, bit j%8.
/// `out` must hold fixed_length * L/8 bytes and is fully overwritten.
void bit_shuffle(std::span<const u32> abs_values, u32 fixed_length,
                 std::span<u8> out);

/// Shuffle a single bit-plane — the unit the pipeline scheduler assigns to
/// PEs ("1-bit Shuffle" in Section 4.2). Writes L/8 bytes for plane `bit`.
void bit_shuffle_plane(std::span<const u32> abs_values, u32 bit,
                       std::span<u8> plane_out);

/// Inverse of bit_shuffle: reassemble absolute values from planes.
void bit_unshuffle(std::span<const u8> planes, u32 fixed_length,
                   std::span<u32> abs_out);

/// Reapply packed signs to absolute values.
void apply_sign(std::span<const u32> abs_values,
                std::span<const u8> sign_bytes, std::span<i32> output);

/// Scalar reference implementations of the dispatched kernels above.
/// (split_sign and bit_shuffle_plane are thin forms of split_sign_max and
/// bit_shuffle and share their kernels.)
namespace scalar {
u32 split_sign_max(std::span<const i32> input, std::span<u32> abs_out,
                   std::span<u8> sign_bytes);
u32 block_max(std::span<const u32> abs_values);
void bit_shuffle(std::span<const u32> abs_values, u32 fixed_length,
                 std::span<u8> out);
void bit_unshuffle(std::span<const u8> planes, u32 fixed_length,
                   std::span<u32> abs_out);
void apply_sign(std::span<const u32> abs_values,
                std::span<const u8> sign_bytes, std::span<i32> output);
}  // namespace scalar

}  // namespace ceresz::core
