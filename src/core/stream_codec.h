// Whole-array compression: REL bound resolution and the self-describing
// "CSZ1" stream container around one range of block records.
//
// This is the host-side reference implementation of CereSZ: a
// single-thread driver over BlockCodec's block-range loops. StreamCodec
// owns the container header — write_header() and parse_header() are the
// only code that writes or reads it — and the WSE mapping in src/mapping
// calls them too, producing bit-identical streams (asserted by the
// integration tests). For parallelism use engine::ParallelEngine.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "core/block_codec.h"
#include "core/config.h"

namespace ceresz::core {

/// Result of StreamCodec::compress.
struct CompressionResult {
  std::vector<u8> stream;  ///< container header + block records
  f64 eps_abs = 0.0;       ///< resolved absolute bound
  u64 element_count = 0;
  StreamStats stats;

  f64 compression_ratio() const {
    return stream.empty() ? 0.0
                          : static_cast<f64>(element_count * sizeof(f32)) /
                                static_cast<f64>(stream.size());
  }
};

class StreamCodec {
 public:
  explicit StreamCodec(CodecConfig config = {});

  const CodecConfig& config() const { return block_codec_.config(); }
  const BlockCodec& block_codec() const { return block_codec_; }

  /// Compress `data` under `bound`. A REL bound is resolved against the
  /// data's value range. The input may have any length; a partial tail
  /// block is zero-padded internally and trimmed on decompression.
  CompressionResult compress(std::span<const f32> data,
                             ErrorBound bound) const;

  /// Decompress a stream produced by compress(). Throws on corrupt input.
  std::vector<f32> decompress(std::span<const u8> stream) const;

  /// Container header size in bytes.
  static constexpr std::size_t header_size() { return 24; }

  /// The fields of a container header that vary per stream.
  struct StreamHeader {
    u64 element_count = 0;
    f64 eps_abs = 0.0;
  };

  /// Append a container header for this codec's configuration.
  void write_header(const StreamHeader& header, std::vector<u8>& out) const;

  /// Parse and validate the container header at the start of `stream`:
  /// magic, block header width and block size (both must match this
  /// codec's configuration), a positive bound, and an element count the
  /// rest of the stream could hold. Throws on any mismatch. The block
  /// records follow at header_size().
  StreamHeader parse_header(std::span<const u8> stream) const;

 private:
  BlockCodec block_codec_;
};

}  // namespace ceresz::core
