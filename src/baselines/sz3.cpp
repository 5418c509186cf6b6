#include "baselines/sz3.h"

#include <bit>
#include <cmath>

#include "baselines/huffman_envelope.h"
#include "baselines/lorenzo_nd.h"
#include "common/bitio.h"
#include "common/byte_io.h"
#include "common/error.h"
#include "common/stats.h"
#include "huffman/huffman.h"

namespace ceresz::baselines {

namespace {

constexpr std::string_view kMagic = "SZ3R";

}  // namespace

std::vector<u8> Sz3Compressor::compress(const data::Field& field,
                                        core::ErrorBound bound,
                                        BaselineStats* stats) const {
  const auto& values = field.values;
  CERESZ_CHECK(!values.empty(), "Sz3Compressor: empty field");
  const GridShape shape = GridShape::from_dims(field.dims);
  CERESZ_CHECK(shape.size() == values.size(),
               "Sz3Compressor: dims do not match data size");

  const f64 eps = bound.resolve(summarize(values).range());
  const f64 two_eps = 2.0 * eps;
  const u32 escape = 2 * radius_;  // symbol marking an outlier

  std::vector<f32> recon(values.size());
  std::vector<u32> symbols(values.size());
  std::vector<f32> outliers;

  std::size_t idx = 0;
  for (std::size_t z = 0; z < shape.dims[0]; ++z) {
    for (std::size_t y = 0; y < shape.dims[1]; ++y) {
      for (std::size_t x = 0; x < shape.dims[2]; ++x, ++idx) {
        const f64 pred = lorenzo_predict<f64>(recon, shape, z, y, x);
        const f64 diff = static_cast<f64>(values[idx]) - pred;
        const f64 qf = std::floor(diff / two_eps + 0.5);
        if (qf >= -static_cast<f64>(radius_) &&
            qf < static_cast<f64>(radius_)) {
          const i64 q = static_cast<i64>(qf);
          const f64 r = pred + static_cast<f64>(q) * two_eps;
          // The bin must actually satisfy the bound after f32 rounding;
          // otherwise fall through to outlier storage.
          if (std::fabs(r - values[idx]) <= eps) {
            symbols[idx] = static_cast<u32>(q + radius_);
            recon[idx] = static_cast<f32>(r);
            continue;
          }
        }
        symbols[idx] = escape;
        outliers.push_back(values[idx]);
        recon[idx] = values[idx];
      }
    }
  }

  // Tokenize: replace runs of the zero-residual bin with run tokens
  // (length bucket + raw offset bits). This plays the role of SZ3's
  // lossless backend: on smooth data the residual stream is dominated by
  // zeros, and run coding takes it well below Huffman's 1-bit/symbol
  // floor — the mechanism behind SZ's 100x+ ratios in Table 5.
  const u32 zero_sym = radius_;
  const u32 run_base = 2 * radius_ + 1;  // token for run bucket b: run_base+b
  std::vector<u32> tokens;
  std::vector<std::pair<u32, int>> run_bits;  // (offset, width) per run token
  tokens.reserve(symbols.size() / 4);
  for (std::size_t i = 0; i < symbols.size();) {
    if (symbols[i] == zero_sym) {
      std::size_t j = i;
      while (j < symbols.size() && symbols[j] == zero_sym) ++j;
      const u64 run = j - i;
      if (run >= 2) {
        const int bucket = 63 - std::countl_zero(run);
        tokens.push_back(run_base + static_cast<u32>(bucket));
        run_bits.emplace_back(static_cast<u32>(run - (u64{1} << bucket)),
                              bucket);
        i = j;
        continue;
      }
    }
    tokens.push_back(symbols[i]);
    ++i;
  }

  huffman::HuffmanCodec codec = huffman::HuffmanCodec::from_symbols(tokens);
  BitWriter writer;
  std::size_t run_at = 0;
  for (u32 t : tokens) {
    codec.encode_one(t, writer);
    if (t >= run_base) {
      const auto [offset, width] = run_bits[run_at++];
      writer.put(offset, width);
    }
  }
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

std::vector<f32> Sz3Compressor::decompress(std::span<const u8> stream) const {
  const HuffmanEnvelope env = parse_envelope(stream, kMagic, "Sz3Compressor");
  const u64 count = env.count;
  const u32 radius = env.radius;
  BitReader reader(env.bits.data(), env.bits.size());
  const u32 run_base = 2 * radius + 1;
  std::vector<u32> symbols;
  symbols.reserve(count);
  while (symbols.size() < count) {
    const u32 t = env.codec.decode_one(reader);
    if (t >= run_base) {
      const int bucket = static_cast<int>(t - run_base);
      CERESZ_CHECK(bucket < 63, "Sz3Compressor: corrupt run token");
      const u64 run = (u64{1} << bucket) + reader.get(bucket);
      CERESZ_CHECK(symbols.size() + run <= count,
                   "Sz3Compressor: run overflows element count");
      symbols.insert(symbols.end(), run, radius);
    } else {
      symbols.push_back(t);
    }
  }
  const std::vector<f32> outliers = env.outlier_values<f32>();

  const GridShape shape = GridShape::from_dims(env.dims);
  const f64 two_eps = 2.0 * env.eps;
  const u32 escape = 2 * radius;

  std::vector<f32> recon(count);
  std::size_t idx = 0;
  std::size_t outlier_at = 0;
  for (std::size_t z = 0; z < shape.dims[0]; ++z) {
    for (std::size_t y = 0; y < shape.dims[1]; ++y) {
      for (std::size_t x = 0; x < shape.dims[2]; ++x, ++idx) {
        if (symbols[idx] == escape) {
          CERESZ_CHECK(outlier_at < outliers.size(),
                       "Sz3Compressor: outlier stream exhausted");
          recon[idx] = outliers[outlier_at++];
          continue;
        }
        const f64 pred = lorenzo_predict<f64>(recon, shape, z, y, x);
        const i64 q = static_cast<i64>(symbols[idx]) - radius;
        recon[idx] = static_cast<f32>(pred + static_cast<f64>(q) * two_eps);
      }
    }
  }
  return recon;
}

std::unique_ptr<Compressor> make_sz3() {
  return std::make_unique<Sz3Compressor>();
}

}  // namespace ceresz::baselines
