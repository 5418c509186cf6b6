// Per-block compression/decompression: the complete three-stage CereSZ
// kernel on one block of L floats. This is exactly the computation that a
// pipeline (of whatever length) performs on one PE group; the stream codec
// and the WSE mapping both delegate to it, so the bytes coming out of the
// simulated wafer are bit-identical to the host codec's.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "core/config.h"

namespace ceresz::core {

/// Outcome of compressing one block.
struct BlockInfo {
  u32 fixed_length = 0;   ///< effective bits of the max |residual| (0 = zero block)
  bool zero_block = false;
  bool constant_block = false;  ///< constant-block shortcut taken (extension)
  u32 compressed_bytes = 0;
};

class BlockCodec {
 public:
  /// Header value marking a constant block (extension); valid fixed
  /// lengths are 0..32, so 33 is free on the wire.
  static constexpr u32 kConstantMarker = 33;

  explicit BlockCodec(CodecConfig config);

  const CodecConfig& config() const { return config_; }

  /// Compressed size of a block with fixed length `fl` (0 for zero blocks).
  std::size_t compressed_size(u32 fl) const;

  /// Upper bound on any block's compressed size (fl = 32).
  std::size_t max_compressed_size() const { return compressed_size(32); }

  /// Compress `input` (exactly block_size floats) with absolute bound
  /// `eps`; append the encoded bytes to `out`.
  BlockInfo compress(std::span<const f32> input, f64 eps,
                     std::vector<u8>& out) const;

  /// Decode one block starting at `in`; write block_size floats. Returns
  /// the number of input bytes consumed. Throws on a truncated or corrupt
  /// record.
  std::size_t decompress(std::span<const u8> in, f64 eps,
                         std::span<f32> output) const;

  /// Parse only the header at `in` and return the full record size —
  /// used to index a stream for parallel decoding. Throws if truncated.
  std::size_t record_size(std::span<const u8> in) const;

 private:
  u32 read_header(std::span<const u8> in) const;
  /// Grow `out` by one record of fixed length `fl`, write its header and
  /// return a pointer to the (zero-filled) body after the header.
  u8* append_record(u32 fl, std::vector<u8>& out) const;

  CodecConfig config_;
};

}  // namespace ceresz::core
