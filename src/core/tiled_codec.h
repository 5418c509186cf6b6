// Extension: the tiled 2-D CereSZ codec — identical pipeline to the 1-D
// StreamCodec except that stage 2 is the tile-local 2-D Lorenzo transform
// of lorenzo2d.h. Each tile is one block (tile_w * tile_h elements), so
// the WSE mapping properties (block independence, fixed-length records)
// carry over unchanged.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "core/stream_codec.h"

namespace ceresz::core {

struct TiledCodecConfig {
  u32 tile_w = 8;
  u32 tile_h = 4;  ///< 8x4 = 32 elements, matching the 1-D block size
  u32 header_bytes = 4;
  bool zero_block_shortcut = true;

  u32 block_size() const { return tile_w * tile_h; }

  void validate() const;
};

class Tiled2dCodec {
 public:
  explicit Tiled2dCodec(TiledCodecConfig config = {});

  const TiledCodecConfig& config() const { return config_; }

  /// Compress a row-major width x height field.
  CompressionResult compress(std::span<const f32> field, std::size_t width,
                             std::size_t height, ErrorBound bound) const;

  /// Decompress; `width`/`height` receive the field dims from the stream.
  std::vector<f32> decompress(std::span<const u8> stream, std::size_t& width,
                              std::size_t& height) const;

  static constexpr std::size_t header_size() { return 40; }

 private:
  TiledCodecConfig config_;
  BlockCodec records_;  ///< one tile's record format
};

}  // namespace ceresz::core
