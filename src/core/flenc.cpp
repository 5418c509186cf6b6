#include "core/flenc.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/cpu_features.h"
#include "common/error.h"

#if CERESZ_X86_KERNELS
#include <immintrin.h>
#endif

namespace ceresz::core {

namespace {

// Unchecked kernels on raw pointers; n is the element count, a multiple
// of 8 except for block_max. Plane k of a shuffle lands at
// out + (k - lo) * n/8.
struct Kernels {
  u32 (*sign_max)(const i32* in, std::size_t n, u32* abs, u8* signs);
  u32 (*max)(const u32* v, std::size_t n);
  void (*shuffle)(const u32* abs, std::size_t n, u32 lo, u32 hi, u8* out);
  void (*unshuffle)(const u8* planes, u32 fl, std::size_t n, u32* abs);
  void (*apply_sign)(const u32* abs, const u8* signs, std::size_t n,
                     i32* out);
};

// --- scalar reference --------------------------------------------------------

u32 sign_max_scalar(const i32* in, std::size_t n, u32* abs, u8* signs) {
  std::memset(signs, 0, n / 8);
  u32 m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const i32 v = in[i];
    if (v < 0) {
      signs[i / 8] |= static_cast<u8>(1u << (i % 8));
      abs[i] = static_cast<u32>(-static_cast<i64>(v));
    } else {
      abs[i] = static_cast<u32>(v);
    }
    m = std::max(m, abs[i]);
  }
  return m;
}

u32 max_scalar(const u32* v, std::size_t n) {
  u32 m = 0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, v[i]);
  return m;
}

void shuffle_scalar(const u32* abs, std::size_t n, u32 lo, u32 hi, u8* out) {
  if (hi == lo) return;
  const std::size_t plane_bytes = n / 8;
  std::memset(out, 0, (hi - lo) * plane_bytes);
  for (u32 k = lo; k < hi; ++k) {
    u8* plane = out + (k - lo) * plane_bytes;
    for (std::size_t j = 0; j < n; ++j) {
      const u8 b = static_cast<u8>((abs[j] >> k) & 1u);
      plane[j / 8] |= static_cast<u8>(b << (j % 8));
    }
  }
}

void unshuffle_scalar(const u8* planes, u32 fl, std::size_t n, u32* abs) {
  const std::size_t plane_bytes = n / 8;
  std::fill(abs, abs + n, 0u);
  for (u32 k = 0; k < fl; ++k) {
    const u8* plane = planes + k * plane_bytes;
    for (std::size_t j = 0; j < n; ++j) {
      const u32 b = (plane[j / 8] >> (j % 8)) & 1u;
      abs[j] |= b << k;
    }
  }
}

void apply_sign_scalar(const u32* abs, const u8* signs, std::size_t n,
                       i32* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool negative = (signs[i / 8] >> (i % 8)) & 1u;
    const i64 magnitude = static_cast<i64>(abs[i]);
    out[i] = static_cast<i32>(negative ? -magnitude : magnitude);
  }
}

constexpr Kernels kScalar{sign_max_scalar, max_scalar, shuffle_scalar,
                          unshuffle_scalar, apply_sign_scalar};

// --- AVX2 --------------------------------------------------------------------
//
// One 8-lane vector holds the 8 elements behind one sign byte or one
// plane byte. Two's-complement wraparound makes abs_epi32 and
// (v ^ m) - m agree bit for bit with the i64 arithmetic of the scalar
// code for every u32/i32 value.

#if CERESZ_X86_KERNELS
#define CERESZ_AVX2 __attribute__((target("avx2")))

CERESZ_AVX2 __m256i load8(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

CERESZ_AVX2 void store8(void* p, __m256i v) {
  _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}

CERESZ_AVX2 u32 hmax_epu32(__m256i v) {
  __m128i m = _mm_max_epu32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<u32>(_mm_cvtsi128_si32(m));
}

/// Lane j of the result is all ones when bit j of `byte` is set.
CERESZ_AVX2 __m256i expand_bits(u8 byte) {
  const __m256i sel = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  return _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(byte), sel),
                            sel);
}

CERESZ_AVX2 u32 sign_max_avx2(const i32* in, std::size_t n, u32* abs,
                              u8* signs) {
  __m256i m = _mm256_setzero_si256();
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256i v = load8(in + i);
    signs[i / 8] =
        static_cast<u8>(_mm256_movemask_ps(_mm256_castsi256_ps(v)));
    const __m256i a = _mm256_abs_epi32(v);
    store8(abs + i, a);
    m = _mm256_max_epu32(m, a);
  }
  return hmax_epu32(m);
}

CERESZ_AVX2 u32 max_avx2(const u32* v, std::size_t n) {
  __m256i m = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) m = _mm256_max_epu32(m, load8(v + i));
  u32 r = hmax_epu32(m);
  for (; i < n; ++i) r = std::max(r, v[i]);
  return r;
}

// Bit-shuffle works on 32 elements at a time through a byte transpose:
// byte vector B[b] holds byte b of elements 0..31, so plane 8b + j is the
// movemask of B[b] shifted to put bit j at the top of each byte, and one
// u32 store writes four plane bytes. Block sizes that are not a multiple
// of 32 (none of the shipped configurations) run the scalar kernels.

/// Within each 128-bit lane, the 4x4 byte transpose of 4 u32 values (its
/// own inverse).
CERESZ_AVX2 __m256i transpose_4x4_bytes(__m256i v) {
  const __m256i m = _mm256_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14,
                                     3, 7, 11, 15, 0, 4, 8, 12, 1, 5, 9, 13,
                                     2, 6, 10, 14, 3, 7, 11, 15);
  return _mm256_shuffle_epi8(v, m);
}

CERESZ_AVX2 void bytes_of_32(const u32* in, __m256i B[4]) {
  const __m256i pair = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  __m256i q[4];  // q[i] qword b = byte b of elements 8i..8i+7
  for (int i = 0; i < 4; ++i) {
    q[i] = _mm256_permutevar8x32_epi32(transpose_4x4_bytes(load8(in + 8 * i)),
                                       pair);
  }
  const __m256i lo01 = _mm256_unpacklo_epi64(q[0], q[1]);
  const __m256i hi01 = _mm256_unpackhi_epi64(q[0], q[1]);
  const __m256i lo23 = _mm256_unpacklo_epi64(q[2], q[3]);
  const __m256i hi23 = _mm256_unpackhi_epi64(q[2], q[3]);
  B[0] = _mm256_permute2x128_si256(lo01, lo23, 0x20);
  B[1] = _mm256_permute2x128_si256(hi01, hi23, 0x20);
  B[2] = _mm256_permute2x128_si256(lo01, lo23, 0x31);
  B[3] = _mm256_permute2x128_si256(hi01, hi23, 0x31);
}

/// Inverse of bytes_of_32.
CERESZ_AVX2 void elements_of_32(const __m256i B[4], u32* out) {
  const __m256i unpair = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256i lo01 = _mm256_permute2x128_si256(B[0], B[2], 0x20);
  const __m256i lo23 = _mm256_permute2x128_si256(B[0], B[2], 0x31);
  const __m256i hi01 = _mm256_permute2x128_si256(B[1], B[3], 0x20);
  const __m256i hi23 = _mm256_permute2x128_si256(B[1], B[3], 0x31);
  const __m256i q[4] = {
      _mm256_unpacklo_epi64(lo01, hi01), _mm256_unpackhi_epi64(lo01, hi01),
      _mm256_unpacklo_epi64(lo23, hi23), _mm256_unpackhi_epi64(lo23, hi23)};
  for (int i = 0; i < 4; ++i) {
    store8(out + 8 * i, transpose_4x4_bytes(
                            _mm256_permutevar8x32_epi32(q[i], unpair)));
  }
}

/// Byte i of the result is all ones when bit i of `mask` is set.
CERESZ_AVX2 __m256i expand_mask32(u32 mask) {
  const __m256i spread = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2,
      3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i bit = _mm256_set1_epi64x(0x8040201008040201);
  const __m256i v = _mm256_shuffle_epi8(
      _mm256_set1_epi32(static_cast<int>(mask)), spread);
  return _mm256_cmpeq_epi8(_mm256_and_si256(v, bit), bit);
}

CERESZ_AVX2 void shuffle_avx2(const u32* abs, std::size_t n, u32 lo, u32 hi,
                              u8* out) {
  if (n % 32 != 0) return shuffle_scalar(abs, n, lo, hi, out);
  const std::size_t plane_bytes = n / 8;
  for (std::size_t g = 0; g < plane_bytes; g += 4) {
    __m256i B[4];
    bytes_of_32(abs + 8 * g, B);
    for (u32 k = lo; k < hi; ++k) {
      const __m256i top = _mm256_sll_epi64(
          B[k / 8], _mm_cvtsi32_si128(static_cast<int>(7 - k % 8)));
      const u32 plane = static_cast<u32>(_mm256_movemask_epi8(top));
      std::memcpy(out + (k - lo) * plane_bytes + g, &plane, sizeof(plane));
    }
  }
}

// Unshuffle rebuilds each byte from its top plane down: double, then add
// the bit (subtracting an all-ones byte adds one).
CERESZ_AVX2 void unshuffle_avx2(const u8* planes, u32 fl, std::size_t n,
                                u32* abs) {
  if (n % 32 != 0) return unshuffle_scalar(planes, fl, n, abs);
  const std::size_t plane_bytes = n / 8;
  for (std::size_t g = 0; g < plane_bytes; g += 4) {
    __m256i B[4];
    for (u32 b = 0; b < 4; ++b) {
      __m256i acc = _mm256_setzero_si256();
      for (u32 k = std::min(fl, 8 * b + 8); k-- > 8 * b;) {
        u32 plane = 0;
        std::memcpy(&plane, planes + k * plane_bytes + g, sizeof(plane));
        acc = _mm256_sub_epi8(_mm256_add_epi8(acc, acc), expand_mask32(plane));
      }
      B[b] = acc;
    }
    elements_of_32(B, abs + 8 * g);
  }
}

CERESZ_AVX2 void apply_sign_avx2(const u32* abs, const u8* signs,
                                 std::size_t n, i32* out) {
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256i m = expand_bits(signs[i / 8]);
    store8(out + i, _mm256_sub_epi32(_mm256_xor_si256(load8(abs + i), m), m));
  }
}

#undef CERESZ_AVX2

constexpr Kernels kAvx2{sign_max_avx2, max_avx2, shuffle_avx2,
                        unshuffle_avx2, apply_sign_avx2};
#endif

const Kernels& dispatched() {
#if CERESZ_X86_KERNELS
  if (cpu::has_avx2()) return kAvx2;
#endif
  return kScalar;
}

// --- checked entry points, shared by both paths ------------------------------

u32 split_sign_max_with(const Kernels& k, std::span<const i32> input,
                        std::span<u32> abs_out, std::span<u8> sign_bytes) {
  CERESZ_CHECK(input.size() == abs_out.size(), "split_sign: size mismatch");
  CERESZ_CHECK(input.size() % 8 == 0,
               "split_sign: block size must be a multiple of 8");
  CERESZ_CHECK(sign_bytes.size() == input.size() / 8,
               "split_sign: sign buffer size mismatch");
  return k.sign_max(input.data(), input.size(), abs_out.data(),
                    sign_bytes.data());
}

void bit_shuffle_with(const Kernels& k, std::span<const u32> abs_values,
                      u32 fixed_length, std::span<u8> out) {
  CERESZ_CHECK(abs_values.size() % 8 == 0,
               "bit_shuffle: block size must be a multiple of 8");
  CERESZ_CHECK(fixed_length <= 32, "bit_shuffle: fixed length exceeds 32");
  CERESZ_CHECK(out.size() == abs_values.size() / 8 * fixed_length,
               "bit_shuffle: output buffer size mismatch");
  k.shuffle(abs_values.data(), abs_values.size(), 0, fixed_length,
            out.data());
}

void bit_unshuffle_with(const Kernels& k, std::span<const u8> planes,
                        u32 fixed_length, std::span<u32> abs_out) {
  CERESZ_CHECK(abs_out.size() % 8 == 0,
               "bit_unshuffle: block size must be a multiple of 8");
  const std::size_t plane_bytes = abs_out.size() / 8;
  CERESZ_CHECK(planes.size() == plane_bytes * fixed_length,
               "bit_unshuffle: input buffer size mismatch");
  CERESZ_CHECK(fixed_length <= 32, "bit_unshuffle: fixed length exceeds 32");
  k.unshuffle(planes.data(), fixed_length, abs_out.size(), abs_out.data());
}

void apply_sign_with(const Kernels& k, std::span<const u32> abs_values,
                     std::span<const u8> sign_bytes, std::span<i32> output) {
  CERESZ_CHECK(abs_values.size() == output.size(),
               "apply_sign: size mismatch");
  CERESZ_CHECK(abs_values.size() % 8 == 0,
               "apply_sign: block size must be a multiple of 8");
  CERESZ_CHECK(sign_bytes.size() == abs_values.size() / 8,
               "apply_sign: sign buffer size mismatch");
  k.apply_sign(abs_values.data(), sign_bytes.data(), abs_values.size(),
               output.data());
}

}  // namespace

u32 effective_bits(u32 value) {
  return static_cast<u32>(std::bit_width(value));
}

void split_sign(std::span<const i32> input, std::span<u32> abs_out,
                std::span<u8> sign_bytes) {
  split_sign_max_with(dispatched(), input, abs_out, sign_bytes);
}

u32 split_sign_max(std::span<const i32> input, std::span<u32> abs_out,
                   std::span<u8> sign_bytes) {
  return split_sign_max_with(dispatched(), input, abs_out, sign_bytes);
}

u32 block_max(std::span<const u32> abs_values) {
  return dispatched().max(abs_values.data(), abs_values.size());
}

void bit_shuffle(std::span<const u32> abs_values, u32 fixed_length,
                 std::span<u8> out) {
  bit_shuffle_with(dispatched(), abs_values, fixed_length, out);
}

void bit_shuffle_plane(std::span<const u32> abs_values, u32 bit,
                       std::span<u8> plane_out) {
  CERESZ_CHECK(abs_values.size() % 8 == 0,
               "bit_shuffle_plane: block size must be a multiple of 8");
  CERESZ_CHECK(plane_out.size() == abs_values.size() / 8,
               "bit_shuffle_plane: plane buffer size mismatch");
  CERESZ_CHECK(bit < 32, "bit_shuffle_plane: bit index out of range");
  dispatched().shuffle(abs_values.data(), abs_values.size(), bit, bit + 1,
                       plane_out.data());
}

void bit_unshuffle(std::span<const u8> planes, u32 fixed_length,
                   std::span<u32> abs_out) {
  bit_unshuffle_with(dispatched(), planes, fixed_length, abs_out);
}

void apply_sign(std::span<const u32> abs_values,
                std::span<const u8> sign_bytes, std::span<i32> output) {
  apply_sign_with(dispatched(), abs_values, sign_bytes, output);
}

namespace scalar {

u32 split_sign_max(std::span<const i32> input, std::span<u32> abs_out,
                   std::span<u8> sign_bytes) {
  return split_sign_max_with(kScalar, input, abs_out, sign_bytes);
}

u32 block_max(std::span<const u32> abs_values) {
  return max_scalar(abs_values.data(), abs_values.size());
}

void bit_shuffle(std::span<const u32> abs_values, u32 fixed_length,
                 std::span<u8> out) {
  bit_shuffle_with(kScalar, abs_values, fixed_length, out);
}

void bit_unshuffle(std::span<const u8> planes, u32 fixed_length,
                   std::span<u32> abs_out) {
  bit_unshuffle_with(kScalar, planes, fixed_length, abs_out);
}

void apply_sign(std::span<const u32> abs_values,
                std::span<const u8> sign_bytes, std::span<i32> output) {
  apply_sign_with(kScalar, abs_values, sign_bytes, output);
}

}  // namespace scalar

}  // namespace ceresz::core
