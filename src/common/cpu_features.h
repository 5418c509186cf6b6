// Runtime CPU feature detection for the kernels that carry an x86 vector
// path next to their scalar reference (core/flenc, core/prequant,
// common/checksum).
//
// Each vector kernel is compiled for its ISA with a per-function
// __attribute__((target(...))), so the library itself needs no -march
// flag; the first call of a dispatched kernel asks the running CPU once
// and every later call takes the same branch. On other architectures or
// compilers the vector paths are not compiled and the scalar references
// run.
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CERESZ_X86_KERNELS 1
#else
#define CERESZ_X86_KERNELS 0
#endif

namespace ceresz::cpu {

/// True when the running CPU executes AVX2 instructions.
inline bool has_avx2() {
#if CERESZ_X86_KERNELS
  static const bool yes =
      (__builtin_cpu_init(), __builtin_cpu_supports("avx2") != 0);
  return yes;
#else
  return false;
#endif
}

/// True when the running CPU executes the SSE4.2 crc32 instruction.
inline bool has_sse42() {
#if CERESZ_X86_KERNELS
  static const bool yes =
      (__builtin_cpu_init(), __builtin_cpu_supports("sse4.2") != 0);
  return yes;
#else
  return false;
#endif
}

}  // namespace ceresz::cpu
