// CRC32C (Castagnoli) checksum, used by the chunked container to detect
// and localize payload corruption per chunk, and by the CSNP frames.
//
// Two implementations compute the same function: crc32c_sw is the
// portable reference (slicing-by-8 tables), and crc32c runs the SSE4.2
// crc32 instruction on three interleaved streams when the CPU has it
// (chosen once at runtime, see
// common/cpu_features.h) and the reference otherwise. The stored values
// are plain CRC32C either way, so the formats do not depend on the path;
// tests/test_kernels_dispatch.cpp checks the two agree byte for byte.
#pragma once

#include <span>

#include "common/types.h"

namespace ceresz {

/// CRC32C of `data`. `seed` is the running CRC for incremental use:
/// crc32c(ab) == crc32c(b, crc32c(a)).
u32 crc32c(std::span<const u8> data, u32 seed = 0);

/// Scalar reference of crc32c (slicing-by-8), same contract.
u32 crc32c_sw(std::span<const u8> data, u32 seed = 0);

/// CRC32C of the concatenation A|B, from crc_a = crc32c(A),
/// crc_b = crc32c(B) and len_b = |B|, without reading either buffer:
/// crc(A|B) = shift_|B|(crc(A)) ^ crc(B), where shift_n appends n zero
/// bytes. Costs O(log len_b). Lets pieces checksummed on different
/// threads (the engine's chunks, a frame's count and values) be joined
/// into the CRC of the whole.
u32 crc32c_combine(u32 crc_a, u32 crc_b, u64 len_b);

/// Streaming accumulator over multiple buffers.
class Crc32c {
 public:
  void update(std::span<const u8> data) { crc_ = crc32c(data, crc_); }
  u32 value() const { return crc_; }
  void reset() { crc_ = 0; }

 private:
  u32 crc_ = 0;
};

}  // namespace ceresz
