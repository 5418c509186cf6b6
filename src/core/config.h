// Configuration types of the CereSZ codec.
#pragma once

#include <cmath>

#include "common/error.h"
#include "common/types.h"

namespace ceresz::core {

/// Error-bound specification.
///
/// The paper evaluates with value-range-based relative (REL) bounds: a REL
/// bound λ on a field with value range r means every reconstructed element
/// differs from the original by at most λ·r. Absolute bounds are supported
/// directly.
struct ErrorBound {
  enum class Mode : u8 {
    kAbsolute,           ///< value is ε itself
    kValueRangeRelative  ///< value is λ; ε = λ · (max - min of the field)
  };

  Mode mode = Mode::kValueRangeRelative;
  f64 value = 1e-3;

  static ErrorBound absolute(f64 eps) {
    return ErrorBound{Mode::kAbsolute, eps};
  }
  static ErrorBound relative(f64 lambda) {
    return ErrorBound{Mode::kValueRangeRelative, lambda};
  }

  /// Resolve to an absolute ε given the field's value range. A bound that
  /// is not finite and positive, or a REL bound over a non-finite range
  /// (NaN or infinite input), is the caller's error.
  f64 resolve(f64 value_range) const {
    CERESZ_CHECK_KIND(std::isfinite(value) && value > 0.0,
                      ErrorKind::kInvalidArgument,
                      "ErrorBound: bound must be finite and positive");
    if (mode == Mode::kAbsolute) return value;
    CERESZ_CHECK_KIND(std::isfinite(value_range), ErrorKind::kInvalidArgument,
                      "ErrorBound: the value range is not finite (NaN or "
                      "infinite input)");
    // A constant field has zero range; any positive ε preserves it exactly.
    return value_range > 0.0 ? value * value_range : value;
  }
};

/// Static configuration of the block codec.
struct CodecConfig {
  /// Elements per block. The paper uses 32 (highest ratio among the options
  /// considered, and compatible with the 16/32-bit fabric transfer units).
  /// Must be a positive multiple of 8 so sign bits pack into whole bytes.
  u32 block_size = 32;

  /// Bytes used to store each block's fixed-length header. CereSZ uses 4
  /// (32-bit fabric messages); SZp/cuSZp use 1. Must be 1, 2, or 4.
  u32 header_bytes = 4;

  /// Store all-zero quantized blocks as a bare header (fixed length 0),
  /// skipping sign extraction and bit-shuffle entirely (Section 5.2).
  bool zero_block_shortcut = true;

  /// Extension (cuSZx-inspired): store a block whose quantized values are
  /// all equal (but non-zero) as a header marker plus the single value —
  /// 8 bytes instead of header + signs + fl planes. Off by default: the
  /// paper's CereSZ does not include it, and the WSE mapping currently
  /// supports only the paper's record format.
  bool constant_block_shortcut = false;

  void validate() const {
    CERESZ_CHECK(block_size >= 8 && block_size % 8 == 0,
                 "CodecConfig: block_size must be a positive multiple of 8");
    CERESZ_CHECK(header_bytes == 1 || header_bytes == 2 || header_bytes == 4,
                 "CodecConfig: header_bytes must be 1, 2, or 4");
  }
};

}  // namespace ceresz::core
