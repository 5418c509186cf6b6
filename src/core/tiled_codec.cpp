#include "core/tiled_codec.h"

#include <algorithm>

#include "common/byte_io.h"
#include "common/error.h"
#include "common/stats.h"
#include "core/flenc.h"
#include "core/lorenzo2d.h"
#include "core/prequant.h"

namespace ceresz::core {

namespace {

constexpr std::string_view kMagic = "CSZ2";

/// The block-record format of one tile, after validating the tiling.
CodecConfig record_config(const TiledCodecConfig& tiled) {
  tiled.validate();
  CodecConfig cfg;
  cfg.block_size = tiled.block_size();
  cfg.header_bytes = tiled.header_bytes;
  cfg.zero_block_shortcut = tiled.zero_block_shortcut;
  return cfg;
}

}  // namespace

void TiledCodecConfig::validate() const {
  CERESZ_CHECK(tile_w >= 1 && tile_h >= 1, "TiledCodecConfig: empty tile");
  CERESZ_CHECK(block_size() % 8 == 0,
               "TiledCodecConfig: tile element count must be a multiple of 8");
  CERESZ_CHECK(header_bytes == 1 || header_bytes == 2 || header_bytes == 4,
               "TiledCodecConfig: header_bytes must be 1, 2, or 4");
}

Tiled2dCodec::Tiled2dCodec(TiledCodecConfig config)
    : config_(config), records_(record_config(config)) {}

CompressionResult Tiled2dCodec::compress(std::span<const f32> field,
                                         std::size_t width,
                                         std::size_t height,
                                         ErrorBound bound) const {
  CERESZ_CHECK(field.size() == width * height,
               "Tiled2dCodec: field size does not match dims");
  const u32 L = config_.block_size();
  const f64 eps = bound.resolve(summarize(field).range());

  CompressionResult result;
  result.eps_abs = eps;
  result.element_count = field.size();

  auto& out = result.stream;
  ByteWriter w(out);
  w.put_tag(kMagic);
  w.put_u8(static_cast<u8>(config_.header_bytes));
  w.put_u8(config_.zero_block_shortcut ? u8{1} : u8{0});
  w.put_u8(static_cast<u8>(config_.tile_w));
  w.put_u8(static_cast<u8>(config_.tile_h));
  w.put_u64(width);
  w.put_u64(height);
  w.put_f64(eps);
  w.put_zeros(8);  // reserved
  CERESZ_CHECK(out.size() == header_size(), "Tiled2dCodec: header drift");
  if (field.empty()) return result;

  const std::size_t tiles_x = (width + config_.tile_w - 1) / config_.tile_w;
  const std::size_t tiles_y = (height + config_.tile_h - 1) / config_.tile_h;

  std::vector<f32> tile(L);
  std::vector<i32> quant(L), resid(L);
  std::vector<u32> absv(L);
  std::vector<u8> signs(L / 8);

  const std::size_t plane_bytes = L / 8;
  StreamStats tally;
  for (std::size_t ty = 0; ty < tiles_y; ++ty) {
    for (std::size_t tx = 0; tx < tiles_x; ++tx) {
      gather_tile(field, width, height, tx * config_.tile_w,
                  ty * config_.tile_h, config_.tile_w, config_.tile_h, tile);
      prequant(tile, quant, 2.0 * eps);
      lorenzo2d_forward(quant, resid, config_.tile_w, config_.tile_h);
      const u32 maxval = split_sign_max(resid, absv, signs);
      BlockInfo info;
      if (config_.zero_block_shortcut && maxval == 0) {
        records_.append_record(0, out);
        info.zero_block = true;
      } else {
        const u32 fl = std::max(effective_bits(maxval), 1u);
        u8* body = records_.append_record(fl, out);
        std::copy(signs.begin(), signs.end(), body);
        bit_shuffle(absv, fl,
                    std::span<u8>(body + plane_bytes, fl * plane_bytes));
        info.fixed_length = fl;
      }
      tally.add(info);
    }
  }
  result.stats.merge(tally);
  return result;
}

std::vector<f32> Tiled2dCodec::decompress(std::span<const u8> stream,
                                          std::size_t& width,
                                          std::size_t& height) const {
  ByteReader r(stream, "Tiled2dCodec");
  CERESZ_CHECK(r.next_is(kMagic),
               "Tiled2dCodec: bad magic — not a tiled CereSZ stream");
  const u8 header_bytes = r.get_u8();
  r.skip(1);  // zero_block_shortcut
  const u8 tile_w = r.get_u8();
  const u8 tile_h = r.get_u8();
  CERESZ_CHECK(header_bytes == config_.header_bytes &&
                   tile_w == config_.tile_w && tile_h == config_.tile_h,
               "Tiled2dCodec: stream written with a different configuration");
  width = r.get_u64();
  height = r.get_u64();
  const f64 eps = r.get_f64();
  r.skip(8);  // reserved
  CERESZ_CHECK(width < (u64{1} << 32) && height < (u64{1} << 32),
               "Tiled2dCodec: corrupt header (absurd dims)");
  CERESZ_CHECK(eps > 0.0 || width * height == 0,
               "Tiled2dCodec: corrupt header (non-positive bound)");
  // Every tile record is at least header_bytes: a corrupt dim pair cannot
  // claim more tiles than the stream could hold.
  {
    const u64 claim_tiles = ((width + config_.tile_w - 1) / config_.tile_w) *
                            ((height + config_.tile_h - 1) / config_.tile_h);
    CERESZ_CHECK(claim_tiles <= r.remaining() / config_.header_bytes,
                 "Tiled2dCodec: corrupt header (tile count exceeds what the "
                 "stream could hold)");
  }

  std::vector<f32> field(width * height, 0.0f);
  if (field.empty()) return field;

  const u32 L = config_.block_size();
  const std::size_t tiles_x = (width + config_.tile_w - 1) / config_.tile_w;
  const std::size_t tiles_y = (height + config_.tile_h - 1) / config_.tile_h;

  std::vector<f32> tile(L);
  std::vector<i32> quant(L), resid(L);
  std::vector<u32> absv(L);
  const std::size_t plane_bytes = L / 8;

  for (std::size_t ty = 0; ty < tiles_y; ++ty) {
    for (std::size_t tx = 0; tx < tiles_x; ++tx) {
      const u32 fl = records_.read_header(r.rest());
      const std::span<const u8> record =
          r.bytes(records_.compressed_size(fl)).subspan(config_.header_bytes);
      if (fl == 0) {
        std::fill(tile.begin(), tile.end(), 0.0f);
      } else {
        bit_unshuffle(record.subspan(plane_bytes, fl * plane_bytes), fl, absv);
        apply_sign(absv, record.first(plane_bytes), resid);
        lorenzo2d_inverse(resid, quant, config_.tile_w, config_.tile_h);
        dequant(quant, tile, 2.0 * eps);
      }
      scatter_tile(tile, width, height, tx * config_.tile_w,
                   ty * config_.tile_h, config_.tile_w, config_.tile_h,
                   field);
    }
  }
  return field;
}

}  // namespace ceresz::core
