#include "core/stream_codec.h"

#include "common/byte_io.h"
#include "common/error.h"
#include "core/prequant.h"

namespace ceresz::core {

namespace {

// Layout (little-endian): magic[4] | block header_bytes u8 |
// zero_block_shortcut u8 | block_size u16 | element_count u64 |
// eps_abs f64 bits.
constexpr std::string_view kMagic = "CSZ1";

}  // namespace

StreamCodec::StreamCodec(CodecConfig config) : block_codec_(config) {}

void StreamCodec::write_header(const StreamHeader& header,
                               std::vector<u8>& out) const {
  const CodecConfig& cfg = block_codec_.config();
  const std::size_t start = out.size();
  ByteWriter w(out);
  w.put_tag(kMagic);
  w.put_u8(static_cast<u8>(cfg.header_bytes));
  w.put_u8(cfg.zero_block_shortcut ? u8{1} : u8{0});
  w.put_u16(static_cast<u16>(cfg.block_size));
  w.put_u64(header.element_count);
  w.put_f64(header.eps_abs);
  CERESZ_CHECK(out.size() - start == header_size(),
               "StreamCodec: header size drift");
}

StreamCodec::StreamHeader StreamCodec::parse_header(
    std::span<const u8> stream) const {
  ByteReader r(stream, "StreamCodec: container header");
  CERESZ_CHECK(r.next_is(kMagic),
               "StreamCodec: bad magic — not a CereSZ stream");
  const CodecConfig& cfg = block_codec_.config();
  CERESZ_CHECK(r.get_u8() == cfg.header_bytes,
               "StreamCodec: stream was written with a different block "
               "header width than this codec's configuration");
  r.skip(1);  // zero_block_shortcut
  CERESZ_CHECK(r.get_u16() == cfg.block_size,
               "StreamCodec: stream was written with a different block size "
               "than this codec's configuration");
  StreamHeader h;
  h.element_count = r.get_u64();
  h.eps_abs = r.get_f64();
  CERESZ_CHECK(h.eps_abs > 0.0 || h.element_count == 0,
               "StreamCodec: corrupt header (non-positive error bound)");
  // Every block record is at least header_bytes, so a corrupt count
  // cannot make a decoder allocate more than the stream could hold.
  const u64 n_blocks = h.element_count / cfg.block_size +
                       (h.element_count % cfg.block_size != 0 ? 1 : 0);
  CERESZ_CHECK(n_blocks <= r.remaining() / cfg.header_bytes,
               "StreamCodec: corrupt header (element count exceeds what the "
               "stream could hold)");
  return h;
}

CompressionResult StreamCodec::compress(std::span<const f32> data,
                                        ErrorBound bound) const {
  CompressionResult result;
  // Only a REL bound needs the value range.
  const bool needs_range =
      bound.mode == ErrorBound::Mode::kValueRangeRelative && !data.empty();
  result.eps_abs = bound.resolve(needs_range ? min_max(data).range() : 0.0);
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
