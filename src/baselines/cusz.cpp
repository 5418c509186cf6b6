#include "baselines/cusz.h"

#include "baselines/huffman_envelope.h"
#include "baselines/lorenzo_nd.h"
#include "common/bitio.h"
#include "common/byte_io.h"
#include "common/error.h"
#include "common/stats.h"
#include "core/prequant.h"
#include "huffman/huffman.h"

namespace ceresz::baselines {

namespace {

constexpr std::string_view kMagic = "CSZR";

}  // namespace

std::vector<u8> CuszCompressor::compress(const data::Field& field,
                                         core::ErrorBound bound,
                                         BaselineStats* stats) const {
  const auto& values = field.values;
  CERESZ_CHECK(!values.empty(), "CuszCompressor: empty field");
  const GridShape shape = GridShape::from_dims(field.dims);
  CERESZ_CHECK(shape.size() == values.size(),
               "CuszCompressor: dims do not match data size");

  const f64 eps = bound.resolve(summarize(values).range());

  // Dual-quant step 1: pre-quantize the whole field (lossy, ε-bounded).
  std::vector<i32> quant(values.size());
  core::prequant(values, quant, 2.0 * eps);

  // Step 2: exact integer Lorenzo residuals (lossless from here on).
  const u32 escape = 2 * radius_;
  std::vector<u32> symbols(values.size());
  std::vector<i32> outliers;
  std::size_t idx = 0;
  for (std::size_t z = 0; z < shape.dims[0]; ++z) {
    for (std::size_t y = 0; y < shape.dims[1]; ++y) {
      for (std::size_t x = 0; x < shape.dims[2]; ++x, ++idx) {
        const i64 pred = lorenzo_predict<i64>(quant, shape, z, y, x);
        const i64 r = static_cast<i64>(quant[idx]) - pred;
        if (r >= -static_cast<i64>(radius_) && r < static_cast<i64>(radius_)) {
          symbols[idx] = static_cast<u32>(r + radius_);
        } else {
          symbols[idx] = escape;
          outliers.push_back(quant[idx]);
        }
      }
    }
  }

  huffman::HuffmanCodec codec = huffman::HuffmanCodec::from_symbols(symbols);
  BitWriter writer;
  codec.encode(symbols, writer);
  std::vector<u8> bits = writer.finish();

  const std::vector<u8> out = write_envelope(
      kMagic, {field.dims, eps, radius_, values.size(), std::move(codec), bits,
               raw_bytes(outliers)});

  if (stats != nullptr) {
    stats->eps_abs = eps;
    stats->element_count = values.size();
    stats->compressed_bytes = out.size();
    stats->outliers = outliers.size();
    stats->mean_code_bits = static_cast<f64>(bits.size()) * 8.0 /
                            static_cast<f64>(values.size());
  }
  return out;
}

std::vector<f32> CuszCompressor::decompress(std::span<const u8> stream) const {
  const HuffmanEnvelope env = parse_envelope(stream, kMagic, "CuszCompressor");
  BitReader reader(env.bits.data(), env.bits.size());
  const std::vector<u32> symbols = env.codec.decode(reader, env.count);
  const std::vector<i32> outliers = env.outlier_values<i32>();

  const GridShape shape = GridShape::from_dims(env.dims);
  const u32 radius = env.radius;
  const u32 escape = 2 * radius;

  std::vector<i32> quant(env.count);
  std::size_t idx = 0;
  std::size_t outlier_at = 0;
  for (std::size_t z = 0; z < shape.dims[0]; ++z) {
    for (std::size_t y = 0; y < shape.dims[1]; ++y) {
      for (std::size_t x = 0; x < shape.dims[2]; ++x, ++idx) {
        if (symbols[idx] == escape) {
          CERESZ_CHECK(outlier_at < outliers.size(),
                       "CuszCompressor: outlier stream exhausted");
          quant[idx] = outliers[outlier_at++];
          continue;
        }
        const i64 pred = lorenzo_predict<i64>(quant, shape, z, y, x);
        quant[idx] = static_cast<i32>(
            pred + static_cast<i64>(symbols[idx]) - radius);
      }
    }
  }

  std::vector<f32> recon(env.count);
  core::dequant(quant, recon, 2.0 * env.eps);
  return recon;
}

std::unique_ptr<Compressor> make_cusz() {
  return std::make_unique<CuszCompressor>();
}

}  // namespace ceresz::baselines
