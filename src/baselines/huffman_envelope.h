// The stream envelope shared by the cuSZ and SZ3 baselines.
//
// Both baselines entropy-code quantization bins with a canonical Huffman
// code and store unpredictable values raw, so their streams have one
// layout and differ only in the magic ("CSZR" for cuSZ, "SZ3R" for SZ3)
// and in what the outliers mean (cuSZ: i32 quantization codes; SZ3: f32
// values). Layout, little-endian:
//
//   magic[4] | u8 ndims | u64 dims[ndims] | f64 eps (bit pattern) |
//   u32 radius | u64 element_count | Huffman code table |
//   u64 bitstream_bytes | bitstream | u64 outlier_count |
//   outliers (outlier_count raw 4-byte values)
#pragma once

#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "huffman/huffman.h"

namespace ceresz::baselines {

/// Everything an envelope carries besides its magic. On parse, `bits` and
/// `outliers` alias the parsed stream.
struct HuffmanEnvelope {
  static constexpr std::size_t kOutlierBytes = 4;

  std::vector<std::size_t> dims;  ///< 1-3 dims, last dimension fastest
  f64 eps = 0.0;                  ///< resolved absolute error bound
  u32 radius = 0;                 ///< quantization bins span [-radius, radius)
  u64 count = 0;                  ///< element count (product of dims)
  huffman::HuffmanCodec codec;
  std::span<const u8> bits;       ///< the Huffman bitstream
  std::span<const u8> outliers;   ///< raw kOutlierBytes-wide values

  /// The outliers as values of T (i32 for cuSZ, f32 for SZ3).
  template <class T>
  std::vector<T> outlier_values() const {
    static_assert(sizeof(T) == kOutlierBytes);
    std::vector<T> values(outliers.size() / sizeof(T));
    if (!values.empty()) {
      std::memcpy(values.data(), outliers.data(), outliers.size());
    }
    return values;
  }
};

/// Serialize `env` behind the 4-byte `magic`.
std::vector<u8> write_envelope(std::string_view magic,
                               const HuffmanEnvelope& env);

/// Parse and validate an envelope written with `magic`: the geometry must
/// be 1-3 nonzero dims whose product is the element count (at most 2^31,
/// the decoders' limit), and every length must fit the stream. Throws
/// ceresz::Error, with `context` (the compressor's name) leading the
/// message.
HuffmanEnvelope parse_envelope(std::span<const u8> stream,
                               std::string_view magic, const char* context);

}  // namespace ceresz::baselines
