#include "core/stream_codec.h"

#include <cstring>

#include "common/error.h"
#include "common/stats.h"

namespace ceresz::core {

namespace {

// Layout (little-endian): magic[4] | block header_bytes u8 |
// zero_block_shortcut u8 | block_size u16 | element_count u64 |
// eps_abs f64 bits.
constexpr char kMagic[4] = {'C', 'S', 'Z', '1'};

void append_le(std::vector<u8>& out, u64 v, int bytes) {
  for (int b = 0; b < bytes; ++b) out.push_back(static_cast<u8>(v >> (8 * b)));
}

u64 read_le(const u8* p, int bytes) {
  u64 v = 0;
  for (int b = 0; b < bytes; ++b) v |= static_cast<u64>(p[b]) << (8 * b);
  return v;
}

}  // namespace

StreamCodec::StreamCodec(CodecConfig config) : block_codec_(config) {}

void StreamCodec::write_header(const StreamHeader& header,
                               std::vector<u8>& out) const {
  const CodecConfig& cfg = block_codec_.config();
  const std::size_t start = out.size();
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(static_cast<u8>(cfg.header_bytes));
  out.push_back(cfg.zero_block_shortcut ? u8{1} : u8{0});
  append_le(out, cfg.block_size, 2);
  append_le(out, header.element_count, 8);
  u64 eps_bits;
  static_assert(sizeof(eps_bits) == sizeof(header.eps_abs));
  std::memcpy(&eps_bits, &header.eps_abs, sizeof(eps_bits));
  append_le(out, eps_bits, 8);
  CERESZ_CHECK(out.size() - start == header_size(),
               "StreamCodec: header size drift");
}

StreamCodec::StreamHeader StreamCodec::parse_header(
    std::span<const u8> stream) const {
  CERESZ_CHECK(stream.size() >= header_size(),
               "StreamCodec: stream shorter than container header");
  CERESZ_CHECK(std::memcmp(stream.data(), kMagic, 4) == 0,
               "StreamCodec: bad magic — not a CereSZ stream");
  const CodecConfig& cfg = block_codec_.config();
  CERESZ_CHECK(stream[4] == cfg.header_bytes,
               "StreamCodec: stream was written with a different block "
               "header width than this codec's configuration");
  CERESZ_CHECK(read_le(stream.data() + 6, 2) == cfg.block_size,
               "StreamCodec: stream was written with a different block size "
               "than this codec's configuration");
  StreamHeader h;
  h.element_count = read_le(stream.data() + 8, 8);
  const u64 eps_bits = read_le(stream.data() + 16, 8);
  std::memcpy(&h.eps_abs, &eps_bits, sizeof(h.eps_abs));
  CERESZ_CHECK(h.eps_abs > 0.0 || h.element_count == 0,
               "StreamCodec: corrupt header (non-positive error bound)");
  // Every block record is at least header_bytes, so a corrupt count
  // cannot make a decoder allocate more than the stream could hold.
  const u64 n_blocks = h.element_count / cfg.block_size +
                       (h.element_count % cfg.block_size != 0 ? 1 : 0);
  CERESZ_CHECK(n_blocks <= (stream.size() - header_size()) / cfg.header_bytes,
               "StreamCodec: corrupt header (element count exceeds what the "
               "stream could hold)");
  return h;
}

CompressionResult StreamCodec::compress(std::span<const f32> data,
                                        ErrorBound bound) const {
  CompressionResult result;
  result.eps_abs = bound.resolve(summarize(data).range());
  result.element_count = data.size();
  write_header({data.size(), result.eps_abs}, result.stream);
  block_codec_.compress_blocks(data, result.eps_abs, result.stream,
                               result.stats);
  return result;
}

std::vector<f32> StreamCodec::decompress(std::span<const u8> stream) const {
  const StreamHeader h = parse_header(stream);
  std::vector<f32> output(h.element_count);
  block_codec_.decompress_blocks(stream.subspan(header_size()), h.eps_abs,
                                 output);
  return output;
}

}  // namespace ceresz::core
