#include "baselines/szp.h"

#include "common/error.h"

namespace ceresz::baselines {

namespace {
core::CodecConfig szp_codec_config() {
  core::CodecConfig cfg;
  cfg.block_size = 32;
  cfg.header_bytes = 1;  // the CPU/GPU codecs are not bound to 32-bit units
  cfg.zero_block_shortcut = true;
  return cfg;
}
}  // namespace

u64 SzpCompressor::offset_table_bytes(u64 blocks) const {
  if (chunk_offset_blocks_ == 0) return 0;
  return (blocks + chunk_offset_blocks_ - 1) / chunk_offset_blocks_ * 4;
}

SzpCompressor::SzpCompressor(std::string name, u32 chunk_offset_blocks)
    : name_(std::move(name)),
      chunk_offset_blocks_(chunk_offset_blocks),
      codec_(szp_codec_config()) {}

std::vector<u8> SzpCompressor::compress(const data::Field& field,
                                        core::ErrorBound bound,
                                        BaselineStats* stats) const {
  core::CompressionResult r = codec_.compress(field.view(), bound);
  // cuSZp bookkeeping: one u32 offset per chunk of blocks, appended after
  // the plain stream.
  r.stream.insert(r.stream.end(), offset_table_bytes(r.stats.total_blocks),
                  0);
  if (stats != nullptr) {
    stats->eps_abs = r.eps_abs;
    stats->element_count = r.element_count;
    stats->compressed_bytes = r.stream.size();
    stats->zero_fraction = r.stats.zero_fraction();
    stats->mean_code_bits = r.stats.mean_fixed_length + 1.0;  // + sign bit
    stats->outliers = 0;
  }
  return std::move(r.stream);
}

std::vector<f32> SzpCompressor::decompress(std::span<const u8> stream) const {
  // Record sizes are self-describing, so the sequential parser needs no
  // offset table; strip it, since the stream decoder rejects trailing bytes.
  const u32 L = codec_.config().block_size;
  const u64 blocks = (codec_.parse_header(stream).element_count + L - 1) / L;
  const u64 table = offset_table_bytes(blocks);
  CERESZ_CHECK(table <= stream.size() - core::StreamCodec::header_size(),
               "SZp: stream shorter than its offset table");
  return codec_.decompress(stream.first(stream.size() - table));
}

std::unique_ptr<Compressor> make_szp() {
  return std::make_unique<SzpCompressor>("SZp");
}

std::unique_ptr<Compressor> make_cuszp() {
  return std::make_unique<SzpCompressor>("cuSZp", /*chunk_offset_blocks=*/256);
}

}  // namespace ceresz::baselines
