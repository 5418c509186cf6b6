#include "baselines/compressor.h"

#include <gtest/gtest.h>

#include <cstring>

#include "baselines/device_model.h"
#include "common/error.h"
#include "common/stats.h"
#include "core/stream_codec.h"
#include "data/generators.h"
#include "test_util.h"

namespace ceresz::baselines {
namespace {

data::Field field_1d(std::vector<f32> values, std::string name = "f") {
  data::Field f;
  f.dataset = "test";
  f.name = std::move(name);
  f.dims = {values.size()};
  f.values = std::move(values);
  return f;
}

data::Field field_2d(std::size_t h, std::size_t w, u64 seed = 3) {
  data::Field f;
  f.dataset = "test";
  f.name = "grid";
  f.dims = {h, w};
  f.values.resize(h * w);
  Rng rng(seed);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      f.values[y * w + x] = static_cast<f32>(
          std::sin(x / 9.0) * std::cos(y / 7.0) + 0.0002 * rng.next_gaussian());
    }
  }
  return f;
}

// Round trip + bound for every baseline, every bound, 1-D and 2-D.
class BaselineRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, f64, int>> {
 protected:
  std::unique_ptr<Compressor> make(int which) {
    switch (which) {
      case 0: return make_szp();
      case 1: return make_cuszp();
      case 2: return make_sz3();
      default: return make_cusz();
    }
  }
};

TEST_P(BaselineRoundTrip, ErrorBoundHolds) {
  const auto [which, rel, shape] = GetParam();
  const auto codec = make(which);
  data::Field f;
  switch (shape) {
    case 0: f = field_1d(test::smooth_signal(5000)); break;
    case 1: f = field_2d(50, 80); break;
    default: f = field_1d(test::sparse_signal(5000, 7, 0.05)); break;
  }
  BaselineStats stats;
  const auto stream = codec->compress(f, core::ErrorBound::relative(rel),
                                      &stats);
  EXPECT_EQ(stats.element_count, f.values.size());
  EXPECT_EQ(stats.compressed_bytes, stream.size());
  const auto back = codec->decompress(stream);
  ASSERT_EQ(back.size(), f.values.size());
  EXPECT_LE(test::max_err(f.values, back),
            stats.eps_abs + test::f32_ulp_slack(f.values))
      << codec->name();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineRoundTrip,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(1e-2, 1e-3, 1e-4),
                       ::testing::Range(0, 3)));

TEST(Baselines, SzpBeatsCereszHeaderCapOnSparseData) {
  // All-zero data: SZp's 1-byte headers cap at 128x (Section 5.3).
  const auto szp = make_szp();
  data::Field zeros = field_1d(std::vector<f32>(32 * 1024, 0.0f));
  BaselineStats stats;
  szp->compress(zeros, core::ErrorBound::absolute(1e-3), &stats);
  EXPECT_NEAR(stats.compression_ratio(), 128.0, 3.0);
}

TEST(Baselines, CuszpOffsetTableCostsALittle) {
  const auto szp = make_szp();
  const auto cuszp = make_cuszp();
  const data::Field f = field_1d(test::smooth_signal(32 * 512));
  BaselineStats s1, s2;
  szp->compress(f, core::ErrorBound::relative(1e-3), &s1);
  cuszp->compress(f, core::ErrorBound::relative(1e-3), &s2);
  EXPECT_GE(s1.compression_ratio(), s2.compression_ratio());
  EXPECT_NEAR(s1.compression_ratio(), s2.compression_ratio(),
              0.05 * s1.compression_ratio());
}

TEST(Baselines, Sz3HighestRatioOnSmoothMultiDimData) {
  // Table 5's headline: SZ's spatial prediction + entropy coding dominates
  // ratio on smooth fields.
  const data::Field f = field_2d(96, 96, 11);
  BaselineStats sz3_stats, szp_stats, cusz_stats;
  make_sz3()->compress(f, core::ErrorBound::relative(1e-3), &sz3_stats);
  make_szp()->compress(f, core::ErrorBound::relative(1e-3), &szp_stats);
  make_cusz()->compress(f, core::ErrorBound::relative(1e-3), &cusz_stats);
  EXPECT_GT(sz3_stats.compression_ratio(), szp_stats.compression_ratio());
  EXPECT_GT(sz3_stats.compression_ratio(), cusz_stats.compression_ratio());
}

TEST(Baselines, Sz3HandlesOutliers) {
  // Spikes exceed the bin radius -> outlier path, still bounded.
  auto values = test::smooth_signal(4000);
  values[100] = 5.0e8f;
  values[2000] = -7.0e8f;
  const data::Field f = field_1d(std::move(values));
  const auto sz3 = make_sz3();
  BaselineStats stats;
  const auto stream = sz3->compress(f, core::ErrorBound::absolute(1e-4),
                                    &stats);
  EXPECT_GT(stats.outliers, 0u);
  const auto back = sz3->decompress(stream);
  EXPECT_LE(test::max_err(f.values, back),
            1e-4 + test::f32_ulp_slack(f.values));
}

TEST(Baselines, CuszMatchesCereszReconstructionExactly) {
  // Both use the same pre-quantization, so the reconstructed values are
  // identical under the same absolute bound (Section 5.4).
  const data::Field f = field_1d(test::smooth_signal(32 * 64));
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);
  const auto cusz = make_cusz();
  const auto cusz_back = cusz->decompress(cusz->compress(f, bound, nullptr));

  core::StreamCodec ceresz_codec;
  const auto ceresz_back =
      ceresz_codec.decompress(ceresz_codec.compress(f.values, bound).stream);
  EXPECT_EQ(cusz_back, ceresz_back);
}

TEST(Baselines, RejectForeignStreams) {
  const std::vector<u8> junk = {'X', 'X', 'X', 'X', 1, 2, 3};
  EXPECT_THROW(make_sz3()->decompress(junk), Error);
  EXPECT_THROW(make_cusz()->decompress(junk), Error);
  EXPECT_THROW(make_szp()->decompress(junk), Error);
}

// A hostile bitstream length near 2^64 must be reported as truncation,
// not wrap a `pos + length` bound and read past the buffer.
TEST(Baselines, RejectWrappedBitstreamLength) {
  std::vector<f32> values(256);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<f32>(std::sin(0.1 * static_cast<f64>(i)));
  }
  const data::Field field = field_1d(values);
  for (const auto& codec : {make_cusz(), make_sz3()}) {
    const std::vector<u8> stream =
        codec->compress(field, core::ErrorBound::absolute(1e-3));
    // 1-D header: magic, ndims, one dim, eps, radius, count; then the
    // Huffman table (u32 entry count, 5 bytes per entry).
    const std::size_t table_at = 4 + 1 + 8 + 8 + 4 + 8;
    u32 entries = 0;
    std::memcpy(&entries, stream.data() + table_at, sizeof(entries));
    const std::size_t length_at = table_at + 4 + std::size_t{entries} * 5;
    ASSERT_LE(length_at + 8, stream.size());
    std::vector<u8> bad(stream.begin(), stream.begin() + length_at + 8);
    std::fill(bad.begin() + length_at, bad.end(), u8{0xff});
    EXPECT_THROW(codec->decompress(bad), Error) << codec->name();
  }
}

TEST(DeviceModel, OrderingMatchesPaper) {
  BaselineStats dense;
  dense.zero_fraction = 0.0;
  dense.mean_code_bits = 10.0;
  const f64 cuszp = cuszp_model().compress_gbps(dense);
  const f64 szp = szp_model().compress_gbps(dense);
  const f64 cusz = cusz_model().compress_gbps(dense);
  const f64 sz3 = sz3_model().compress_gbps(dense);
  // Fig. 11: cuSZp > cuSZ > SZp > SZ.
  EXPECT_GT(cuszp, cusz);
  EXPECT_GT(cusz, szp);
  EXPECT_GT(szp, sz3);
  EXPECT_LT(sz3, 1.0);  // "routinely less than 1 GB/s"
  // Dense-data cuSZp sits below the ~93 GB/s paper-implied average (the
  // average includes zero-block-boosted sparse datasets).
  EXPECT_GT(cuszp, 55.0);
  EXPECT_LT(cuszp, 95.0);
}

TEST(DeviceModel, ZeroBlocksSpeedUpBlockwiseCodecs) {
  BaselineStats dense, sparse;
  dense.zero_fraction = 0.0;
  dense.mean_code_bits = 10.0;
  sparse.zero_fraction = 0.9;
  sparse.mean_code_bits = 2.0;
  EXPECT_GT(cuszp_model().compress_gbps(sparse),
            cuszp_model().compress_gbps(dense));
}

TEST(DeviceModel, DecompressionFactors) {
  BaselineStats s;
  s.mean_code_bits = 8.0;
  EXPECT_GT(cuszp_model().decompress_gbps(s), cuszp_model().compress_gbps(s));
  EXPECT_LT(cusz_model().decompress_gbps(s), cusz_model().compress_gbps(s));
}

}  // namespace
}  // namespace ceresz::baselines
