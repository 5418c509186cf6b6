// Per-block compression/decompression: the complete three-stage CereSZ
// kernel on one block of L floats. This is exactly the computation that a
// pipeline (of whatever length) performs on one PE group. BlockCodec also
// owns the block-record format (header, sign plane, bit planes) and the
// loops over a range of blocks; the stream codec, the parallel engine and
// the WSE mapping all go through it, so the bytes coming out of the
// simulated wafer are bit-identical to the host codec's.
#pragma once

#include <algorithm>
#include <array>
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

/// Aggregate statistics of a run of compressed blocks.
struct StreamStats {
  u64 total_blocks = 0;
  u64 zero_blocks = 0;
  u64 constant_blocks = 0;  ///< constant-block shortcut hits (extension)
  u32 max_fixed_length = 0;
  f64 mean_fixed_length = 0.0;  ///< over non-zero blocks
  std::array<u64, 33> fl_histogram{};  ///< count of blocks per fixed length

  f64 zero_fraction() const {
    return total_blocks == 0
               ? 0.0
               : static_cast<f64>(zero_blocks) / static_cast<f64>(total_blocks);
  }

  /// Tally one block. Leaves mean_fixed_length as it was; merge() derives
  /// it from the histogram.
  void add(const BlockInfo& info) {
    ++total_blocks;
    if (info.zero_block) {
      ++zero_blocks;
      ++fl_histogram[0];
    } else if (info.constant_block) {
      ++constant_blocks;
    } else {
      max_fixed_length = std::max(max_fixed_length, info.fixed_length);
      ++fl_histogram[info.fixed_length];
    }
  }

  /// Fold `other` in and recompute mean_fixed_length from the merged
  /// histogram (exact: it holds every non-zero block's fixed length).
  void merge(const StreamStats& other);
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

  /// Parse only the header at `in` and return the full record size.
  /// Throws if the header is truncated or corrupt.
  std::size_t record_size(std::span<const u8> in) const;

  /// The record header: grow `out` by one record of fixed length `fl`
  /// (0 = zero block), write its little-endian header_bytes-wide header
  /// and return a pointer to the zero-filled body after it. The body is
  /// the sign plane followed by `fl` bit planes.
  u8* append_record(u32 fl, std::vector<u8>& out) const;

  /// Parse the header at `in` and return its fixed length. Throws if the
  /// header is truncated or names no valid record.
  u32 read_header(std::span<const u8> in) const;

  /// Default stop predicate of the block-range loops: never stops.
  struct NeverStop {
    bool operator()() const { return false; }
  };

  /// Compress `data` (any length) as consecutive blocks, zero-padding a
  /// partial tail block, append the records to `out` and merge their
  /// statistics into `stats`. `stop()` runs before each block; once it
  /// returns true the call returns false, leaving `out` partly written and
  /// `stats` unchanged.
  template <class Stop = NeverStop>
  bool compress_blocks(std::span<const f32> data, f64 eps,
                       std::vector<u8>& out, StreamStats& stats,
                       Stop&& stop = {}) const {
    const std::size_t L = config_.block_size;
    out.reserve(out.size() + (data.size() + L - 1) / L * max_compressed_size());
    StreamStats tally;
    for (std::size_t at = 0; at < data.size(); at += L) {
      if (stop()) return false;
      tally.add(data.size() - at >= L
                    ? compress(data.subspan(at, L), eps, out)
                    : compress_tail(data.subspan(at), eps, out));
    }
    stats.merge(tally);
    return true;
  }

  /// Decode `payload` — exactly the records of ceil(output.size() / L)
  /// consecutive blocks — into `output`, trimming the last block to fit.
  /// Throws if the payload is truncated, corrupt or has trailing bytes.
  /// `stop()` runs before each block; once it returns true the call
  /// returns false with `output` partly written.
  template <class Stop = NeverStop>
  bool decompress_blocks(std::span<const u8> payload, f64 eps,
                         std::span<f32> output, Stop&& stop = {}) const {
    const std::size_t L = config_.block_size;
    std::size_t pos = 0;
    for (std::size_t at = 0; at < output.size(); at += L) {
      if (stop()) return false;
      pos += output.size() - at >= L
                 ? decompress(payload.subspan(pos), eps, output.subspan(at, L))
                 : decompress_tail(payload.subspan(pos), eps,
                                   output.subspan(at));
    }
    require_consumed(pos, payload.size());
    return true;
  }

  /// Split `payload` into the records of `n_blocks` consecutive blocks
  /// without decoding them. Throws on the same structural faults as
  /// decompress_blocks().
  std::vector<std::span<const u8>> split_records(std::span<const u8> payload,
                                                 u64 n_blocks) const;

 private:
  /// compress()/decompress() for a partial block of fewer than
  /// block_size values: padded with zeros on the way in, trimmed on the
  /// way out.
  BlockInfo compress_tail(std::span<const f32> input, f64 eps,
                          std::vector<u8>& out) const;
  std::size_t decompress_tail(std::span<const u8> in, f64 eps,
                              std::span<f32> output) const;
  static void require_consumed(std::size_t consumed, std::size_t size);

  CodecConfig config_;
};

}  // namespace ceresz::core
