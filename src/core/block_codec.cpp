#include "core/block_codec.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/error.h"
#include "core/flenc.h"
#include "core/lorenzo.h"
#include "core/prequant.h"

namespace ceresz::core {

namespace {

// Blocks of up to this many elements keep their per-call scratch on the
// stack; larger block sizes fall back to the heap.
constexpr std::size_t kStackElems = 256;

template <class T>
class Scratch {
 public:
  explicit Scratch(std::size_t n) : n_(n) {
    if (n > kStackElems) heap_.resize(n);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::span<T> span() {
    return {n_ > kStackElems ? heap_.data() : local_.data(), n_};
  }

 private:
  std::size_t n_;
  // Left uninitialized: every kernel that takes this scratch writes each
  // element before anything reads it.
  std::array<T, kStackElems> local_;
  std::vector<T> heap_;
};

}  // namespace

void StreamStats::merge(const StreamStats& other) {
  total_blocks += other.total_blocks;
  zero_blocks += other.zero_blocks;
  constant_blocks += other.constant_blocks;
  max_fixed_length = std::max(max_fixed_length, other.max_fixed_length);
  u64 nonzero = 0;
  u64 fl_sum = 0;
  for (std::size_t fl = 0; fl < fl_histogram.size(); ++fl) {
    fl_histogram[fl] += other.fl_histogram[fl];
    if (fl > 0) {
      nonzero += fl_histogram[fl];
      fl_sum += fl * fl_histogram[fl];
    }
  }
  mean_fixed_length = nonzero > 0 ? static_cast<f64>(fl_sum) /
                                        static_cast<f64>(nonzero)
                                  : 0.0;
}

BlockCodec::BlockCodec(CodecConfig config) : config_(config) {
  config_.validate();
}

std::size_t BlockCodec::compressed_size(u32 fl) const {
  const std::size_t plane_bytes = config_.block_size / 8;
  if (fl == 0) return config_.header_bytes;
  if (fl == kConstantMarker) return config_.header_bytes + sizeof(i32);
  return config_.header_bytes + plane_bytes + fl * plane_bytes;
}

u8* BlockCodec::append_record(u32 fl, std::vector<u8>& out) const {
  const std::size_t at = out.size();
  out.resize(at + compressed_size(fl));
  // Little-endian, header_bytes wide. fl <= 32 always fits in one byte;
  // CereSZ pads to 4 bytes to honor the fabric's 32-bit transfer units.
  for (u32 b = 0; b < config_.header_bytes; ++b) {
    out[at + b] = static_cast<u8>((fl >> (8 * b)) & 0xff);
  }
  return out.data() + at + config_.header_bytes;
}

u32 BlockCodec::read_header(std::span<const u8> in) const {
  CERESZ_CHECK(in.size() >= config_.header_bytes,
               "BlockCodec: truncated block header");
  u32 fl = 0;
  for (u32 b = 0; b < config_.header_bytes; ++b) {
    fl |= static_cast<u32>(in[b]) << (8 * b);
  }
  const u32 max_valid =
      config_.constant_block_shortcut ? kConstantMarker : 32;
  CERESZ_CHECK(fl <= max_valid, "BlockCodec: corrupt header");
  return fl;
}

BlockInfo BlockCodec::compress(std::span<const f32> input, f64 eps,
                               std::vector<u8>& out) const {
  const u32 L = config_.block_size;
  CERESZ_CHECK(input.size() == L, "BlockCodec::compress: wrong block size");
  CERESZ_CHECK(eps > 0.0, "BlockCodec::compress: eps must be positive");

  Scratch<i32> quant_buf(L);
  Scratch<u32> abs_buf(L);
  Scratch<u8> sign_buf(L / 8);
  const std::span<i32> quant = quant_buf.span();
  const std::span<u32> abs_values = abs_buf.span();
  const std::span<u8> signs = sign_buf.span();

  // Stage 1: pre-quantization.
  prequant(input, quant, 2.0 * eps);

  // Stage 2: 1-D Lorenzo prediction (in place).
  lorenzo_forward(quant, quant);

  // Stage 3: fixed-length encoding.
  const u32 maxval = split_sign_max(quant, abs_values, signs);
  const u32 fl = effective_bits(maxval);

  BlockInfo info;
  if (config_.zero_block_shortcut && maxval == 0) {
    // All-zero quantized block: a bare header with fixed length 0.
    append_record(0, out);
    info.fixed_length = 0;
    info.zero_block = true;
    info.compressed_bytes = config_.header_bytes;
    return info;
  }

  if (config_.constant_block_shortcut) {
    // Extension: residuals (p0, p1-p0, ...) of a constant block are
    // (p0, 0, 0, ...) — detect and store just the value.
    bool constant = true;
    for (std::size_t i = 1; i < quant.size(); ++i) {
      if (quant[i] != 0) {
        constant = false;
        break;
      }
    }
    if (constant) {
      u8* body = append_record(kConstantMarker, out);
      const u32 value = static_cast<u32>(quant[0]);
      for (int b = 0; b < 4; ++b) {
        body[b] = static_cast<u8>((value >> (8 * b)) & 0xff);
      }
      info.fixed_length = 0;
      info.constant_block = true;
      info.compressed_bytes =
          static_cast<u32>(compressed_size(kConstantMarker));
      return info;
    }
  }

  // A non-zero block always has fl >= 1; fl == 0 on the wire means "zero
  // block", so when the shortcut is disabled an all-zero block is encoded
  // with fl = 1 (one explicit zero plane).
  const u32 encoded_fl = std::max(fl, 1u);
  const std::size_t plane_bytes = L / 8;
  u8* body = append_record(encoded_fl, out);
  std::memcpy(body, signs.data(), plane_bytes);
  bit_shuffle(abs_values, encoded_fl,
              std::span<u8>(body + plane_bytes, encoded_fl * plane_bytes));

  info.fixed_length = encoded_fl;
  info.zero_block = false;
  info.compressed_bytes =
      static_cast<u32>(compressed_size(encoded_fl));
  return info;
}

std::size_t BlockCodec::decompress(std::span<const u8> in, f64 eps,
                                   std::span<f32> output) const {
  const u32 L = config_.block_size;
  CERESZ_CHECK(output.size() == L, "BlockCodec::decompress: wrong block size");
  const u32 fl = read_header(in);
  const std::size_t total = compressed_size(fl);
  CERESZ_CHECK(in.size() >= total, "BlockCodec: truncated block record");

  if (fl == 0) {
    std::fill(output.begin(), output.end(), 0.0f);
    return total;
  }

  if (fl == kConstantMarker) {
    u32 bits = 0;
    for (int b = 0; b < 4; ++b) {
      bits |= static_cast<u32>(in[config_.header_bytes + b]) << (8 * b);
    }
    const f32 value =
        static_cast<f32>(static_cast<f64>(static_cast<i32>(bits)) * 2.0 * eps);
    std::fill(output.begin(), output.end(), value);
    return total;
  }

  const std::size_t plane_bytes = L / 8;
  const std::span<const u8> signs = in.subspan(config_.header_bytes, plane_bytes);
  const std::span<const u8> planes =
      in.subspan(config_.header_bytes + plane_bytes, fl * plane_bytes);

  Scratch<u32> abs_buf(L);
  Scratch<i32> quant_buf(L);
  const std::span<u32> abs_values = abs_buf.span();
  const std::span<i32> quant = quant_buf.span();
  bit_unshuffle(planes, fl, abs_values);
  apply_sign(abs_values, signs, quant);
  lorenzo_inverse(quant, quant);
  dequant(quant, output, 2.0 * eps);
  return total;
}

std::size_t BlockCodec::record_size(std::span<const u8> in) const {
  return compressed_size(read_header(in));
}

BlockInfo BlockCodec::compress_tail(std::span<const f32> input, f64 eps,
                                    std::vector<u8>& out) const {
  Scratch<f32> padded_buf(config_.block_size);
  const std::span<f32> padded = padded_buf.span();
  std::fill(std::copy(input.begin(), input.end(), padded.begin()),
            padded.end(), 0.0f);
  return compress(padded, eps, out);
}

std::size_t BlockCodec::decompress_tail(std::span<const u8> in, f64 eps,
                                        std::span<f32> output) const {
  Scratch<f32> padded_buf(config_.block_size);
  const std::span<f32> padded = padded_buf.span();
  const std::size_t used = decompress(in, eps, padded);
  std::copy_n(padded.begin(), output.size(), output.begin());
  return used;
}

void BlockCodec::require_consumed(std::size_t consumed, std::size_t size) {
  CERESZ_CHECK(consumed == size,
               "BlockCodec: block payload has trailing bytes after its last "
               "record");
}

std::vector<std::span<const u8>> BlockCodec::split_records(
    std::span<const u8> payload, u64 n_blocks) const {
  // Every record is at least header_bytes: a corrupt block count cannot
  // make us reserve more than the payload could hold.
  CERESZ_CHECK(n_blocks <= payload.size() / config_.header_bytes,
               "BlockCodec: block payload too short for its block count");
  std::vector<std::span<const u8>> records;
  records.reserve(n_blocks);
  std::size_t pos = 0;
  for (u64 b = 0; b < n_blocks; ++b) {
    const std::size_t size = record_size(payload.subspan(pos));
    CERESZ_CHECK(size <= payload.size() - pos,
                 "BlockCodec: truncated block record");
    records.push_back(payload.subspan(pos, size));
    pos += size;
  }
  require_consumed(pos, payload.size());
  return records;
}

}  // namespace ceresz::core
