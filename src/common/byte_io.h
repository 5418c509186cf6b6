// Little-endian byte I/O shared by every serialized CereSZ format.
//
// All of the library's streams (CSZ1, CSZ2, CSZC, CSZA, the CSNP frames,
// the cuSZ/SZ3 envelopes and their Huffman tables) are sequences of
// fixed-width little-endian fields. ByteWriter appends such fields to a
// byte vector; ByteReader is a cursor that consumes them and checks every
// read against the bytes that remain. The check is always
// `n <= remaining()` and never `pos + n <= size`, so a length taken from a
// hostile stream (up to 2^64 - 1) cannot wrap past the bound. A failed
// read throws ceresz::Error whose message starts with the caller's
// context, e.g. "net: COMPRESS payload: truncated input".
//
// The per-block record header (core/block_codec.h) is not written here:
// its width is configurable and it sits on the per-block hot path.
#pragma once

#include <array>
#include <bit>
#include <cstring>
#include <ranges>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace ceresz {

/// The little-endian bytes of an unsigned integer.
template <class T>
constexpr std::array<u8, sizeof(T)> le_bytes(T v) {
  static_assert(std::is_unsigned_v<T>);
  std::array<u8, sizeof(T)> out{};
  for (std::size_t b = 0; b < sizeof(T); ++b) {
    out[b] = static_cast<u8>(v >> (8 * b));
  }
  return out;
}

/// Decode the unsigned integer whose little-endian bytes start at `p`.
template <class T>
constexpr T from_le_bytes(const u8* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  for (std::size_t b = 0; b < sizeof(T); ++b) {
    v = static_cast<T>(v | static_cast<T>(p[b]) << (8 * b));
  }
  return v;
}

/// The in-memory bytes of a trivially copyable array, e.g. raw f32 data
/// or outliers (stored in host order, which the formats assume is
/// little-endian).
template <std::ranges::contiguous_range R>
std::span<const u8> raw_bytes(const R& values) {
  using T = std::ranges::range_value_t<R>;
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const u8*>(std::ranges::data(values)),
          std::ranges::size(values) * sizeof(T)};
}

/// Appends little-endian fields to a byte vector it borrows.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<u8>& out) : out_(out) {}

  void put_u8(u8 v) { out_.push_back(v); }
  void put_u16(u16 v) { put_bytes(le_bytes(v)); }
  void put_u32(u32 v) { put_bytes(le_bytes(v)); }
  void put_u64(u64 v) { put_bytes(le_bytes(v)); }
  /// An f64 as its IEEE-754 bit pattern (so -0.0 and NaN payloads survive).
  void put_f64(f64 v) { put_u64(std::bit_cast<u64>(v)); }
  void put_bytes(std::span<const u8> bytes) {
    const std::size_t at = out_.size();
    out_.resize(at + bytes.size());
    if (!bytes.empty()) {
      std::memcpy(out_.data() + at, bytes.data(), bytes.size());
    }
  }
  /// A magic number or other fixed tag, without a terminator.
  void put_tag(std::string_view tag) {
    put_bytes({reinterpret_cast<const u8*>(tag.data()), tag.size()});
  }
  void put_zeros(std::size_t n) { out_.insert(out_.end(), n, u8{0}); }

 private:
  std::vector<u8>& out_;
};

/// Bounds-checked little-endian cursor over a byte span it does not own.
class ByteReader {
 public:
  /// `context` prefixes every error message (e.g. "Archive",
  /// "net: frame header"); it must outlive the reader.
  ByteReader(std::span<const u8> bytes, const char* context)
      : bytes_(bytes), context_(context) {}

  u8 get_u8() { return bytes(1)[0]; }
  u16 get_u16() { return from_le_bytes<u16>(bytes(2).data()); }
  u32 get_u32() { return from_le_bytes<u32>(bytes(4).data()); }
  u64 get_u64() { return from_le_bytes<u64>(bytes(8).data()); }
  f64 get_f64() { return std::bit_cast<f64>(get_u64()); }

  /// The next `n` bytes, as a view into the underlying buffer. Throws if
  /// fewer than `n` remain.
  std::span<const u8> bytes(u64 n) {
    if (n > remaining()) truncated(n);
    const std::span<const u8> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// The next `count` elements of `elem_bytes` bytes each. The count is
  /// checked by division, so `count * elem_bytes` cannot wrap either.
  std::span<const u8> elements(u64 count, std::size_t elem_bytes) {
    if (count > remaining() / elem_bytes) truncated(count, elem_bytes);
    return bytes(count * elem_bytes);
  }

  /// Consume `tag.size()` bytes and report whether they equal `tag` (a
  /// magic number). Throws, like any read, if fewer remain.
  bool next_is(std::string_view tag) {
    const std::span<const u8> got = bytes(tag.size());
    return std::string_view(reinterpret_cast<const char*>(got.data()),
                            got.size()) == tag;
  }

  void skip(u64 n) { bytes(n); }

  u64 remaining() const { return bytes_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == bytes_.size(); }
  /// Everything not yet consumed.
  std::span<const u8> rest() const { return bytes_.subspan(pos_); }

 private:
  [[noreturn]] void truncated(u64 count, std::size_t elem_bytes = 1) const;

  std::span<const u8> bytes_;
  std::size_t pos_ = 0;
  const char* context_;
};

}  // namespace ceresz
