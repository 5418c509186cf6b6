// SZp / cuSZp baselines.
//
// Both share CereSZ's algorithm skeleton (pre-quantization, 1-D Lorenzo,
// block fixed-length encoding) but store the per-block fixed length in a
// single byte — the 32-bit fabric message constraint does not apply to a
// CPU or GPU — which is why their ratio cap on sparse data is ~128x where
// CereSZ's is ~32x (Section 5.3).
//
// cuSZp's kernel-fusion design additionally keeps a compact per-chunk
// offset table so fused GPU thread blocks can write their output
// independently; SZp's simpler multi-core CPU implementation does not,
// giving it slightly higher ratios on some datasets (Section 5.3's
// CESM-ATM/HACC remark).
#pragma once

#include "baselines/compressor.h"
#include "core/stream_codec.h"

namespace ceresz::baselines {

class SzpCompressor : public Compressor {
 public:
  /// `chunk_offset_blocks` > 0 adds a u32 offset entry per that many
  /// blocks (the cuSZp variant); 0 disables the table (plain SZp).
  explicit SzpCompressor(std::string name, u32 chunk_offset_blocks = 0);

  std::string name() const override { return name_; }
  std::vector<u8> compress(const data::Field& field, core::ErrorBound bound,
                           BaselineStats* stats) const override;
  std::vector<f32> decompress(std::span<const u8> stream) const override;

 private:
  /// Size of the cuSZp offset table for `blocks` blocks (0 for SZp).
  u64 offset_table_bytes(u64 blocks) const;

  std::string name_;
  u32 chunk_offset_blocks_;
  core::StreamCodec codec_;
};

}  // namespace ceresz::baselines
