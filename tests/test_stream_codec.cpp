#include "core/stream_codec.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "test_util.h"

namespace ceresz::core {
namespace {

TEST(StreamCodec, RoundTripSmooth) {
  const StreamCodec codec;
  const auto data = test::smooth_signal(10000);
  const auto result = codec.compress(data, ErrorBound::absolute(1e-3));
  EXPECT_EQ(result.element_count, data.size());
  EXPECT_GT(result.compression_ratio(), 1.0);

  const auto back = codec.decompress(result.stream);
  ASSERT_EQ(back.size(), data.size());
  EXPECT_LE(test::max_err(data, back), 1e-3);
}

TEST(StreamCodec, RelativeBoundUsesValueRange) {
  const StreamCodec codec;
  auto data = test::smooth_signal(4096);
  // Scale so the value range is ~200; REL 1e-3 -> eps ~0.2.
  for (auto& v : data) v *= 100.0f;
  const auto result = codec.compress(data, ErrorBound::relative(1e-3));
  f32 lo = data[0], hi = data[0];
  for (f32 v : data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(result.eps_abs, (hi - lo) * 1e-3, 1e-9);
  const auto back = codec.decompress(result.stream);
  EXPECT_LE(test::max_err(data, back), result.eps_abs);
}

TEST(StreamCodec, TailBlockHandled) {
  const StreamCodec codec;
  for (std::size_t n : {1u, 31u, 32u, 33u, 100u, 1023u}) {
    const auto data = test::smooth_signal(n);
    const auto result = codec.compress(data, ErrorBound::absolute(1e-2));
    const auto back = codec.decompress(result.stream);
    ASSERT_EQ(back.size(), n) << "n=" << n;
    EXPECT_LE(test::max_err(data, back), 1e-2) << "n=" << n;
  }
}

TEST(StreamCodec, SparseDataApproachesHeaderCap) {
  // All-zero data: every block is a bare header. With 4-byte headers the
  // cap is 32x (CereSZ); with 1-byte headers 128x (SZp/cuSZp).
  const std::vector<f32> zeros(32 * 4096, 0.0f);

  const StreamCodec ceresz_codec;  // default: 4-byte headers
  const auto r4 = ceresz_codec.compress(zeros, ErrorBound::absolute(1e-2));
  EXPECT_NEAR(r4.compression_ratio(), 32.0, 0.5);

  CodecConfig szp;
  szp.header_bytes = 1;
  const StreamCodec szp_codec(szp);
  const auto r1 = szp_codec.compress(zeros, ErrorBound::absolute(1e-2));
  EXPECT_NEAR(r1.compression_ratio(), 128.0, 2.0);
}

TEST(StreamCodec, StatsTrackZeroBlocks) {
  const StreamCodec codec;
  auto data = test::sparse_signal(32 * 100, 21, 0.01);
  const auto result = codec.compress(data, ErrorBound::absolute(1e-1));
  EXPECT_EQ(result.stats.total_blocks, 100u);
  EXPECT_GT(result.stats.zero_blocks, 0u);
  EXPECT_LT(result.stats.zero_blocks, 100u);
  u64 hist_total = 0;
  for (u64 c : result.stats.fl_histogram) hist_total += c;
  EXPECT_EQ(hist_total, result.stats.total_blocks);
}

TEST(StreamCodec, LargerBoundNeverLowersRatio) {
  const StreamCodec codec;
  const auto data = test::smooth_signal(32 * 512);
  f64 prev_ratio = 0.0;
  for (f64 rel : {1e-4, 1e-3, 1e-2}) {
    const auto r = codec.compress(data, ErrorBound::relative(rel));
    EXPECT_GE(r.compression_ratio(), prev_ratio);
    prev_ratio = r.compression_ratio();
  }
}

TEST(StreamCodec, RejectsForeignStream) {
  const StreamCodec codec;
  std::vector<u8> junk = {'N', 'O', 'P', 'E', 0, 0, 0, 0, 0, 0, 0, 0,
                          0,   0,   0,   0,   0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_THROW(codec.decompress(junk), Error);
}

TEST(StreamCodec, RejectsMismatchedConfig) {
  const StreamCodec writer;  // 4-byte headers
  CodecConfig other;
  other.header_bytes = 1;
  const StreamCodec reader(other);
  const auto data = test::smooth_signal(64);
  const auto result = writer.compress(data, ErrorBound::absolute(1e-2));
  EXPECT_THROW(reader.decompress(result.stream), Error);
}

TEST(StreamCodec, RejectsTruncatedStream) {
  const StreamCodec codec;
  const auto data = test::smooth_signal(4096);
  const auto result = codec.compress(data, ErrorBound::absolute(1e-3));
  std::span<const u8> cut(result.stream.data(), result.stream.size() / 2);
  EXPECT_THROW(codec.decompress(cut), Error);
}

TEST(StreamCodec, RejectsTrailingBytes) {
  const StreamCodec codec;
  const auto data = test::smooth_signal(4096);
  auto stream = codec.compress(data, ErrorBound::absolute(1e-3)).stream;
  stream.insert(stream.end(), 100, u8{0xA5});
  EXPECT_THROW(codec.decompress(stream), Error);
}

TEST(StreamCodec, EmptyInput) {
  const StreamCodec codec;
  const std::vector<f32> empty;
  const auto result = codec.compress(empty, ErrorBound::absolute(1e-3));
  EXPECT_EQ(result.element_count, 0u);
  const auto back = codec.decompress(result.stream);
  EXPECT_TRUE(back.empty());
}

TEST(StreamCodec, ConstantFieldWithRelativeBound) {
  // A constant field has zero value range; REL bounds must still work.
  const StreamCodec codec;
  const std::vector<f32> flat(320, 3.5f);
  const auto result = codec.compress(flat, ErrorBound::relative(1e-3));
  const auto back = codec.decompress(result.stream);
  EXPECT_LE(test::max_err(flat, back), result.eps_abs);
}

// Property sweep: bound x signal shape x block size.
class StreamRoundTrip
    : public ::testing::TestWithParam<std::tuple<f64, int, u32>> {};

TEST_P(StreamRoundTrip, ErrorBoundHolds) {
  const auto [rel, kind, block_size] = GetParam();
  std::vector<f32> data;
  switch (kind) {
    case 0: data = test::smooth_signal(5000); break;
    case 1: data = test::random_signal(5000, 3, -1000.0, 1000.0); break;
    default: data = test::sparse_signal(5000, 5, 0.1); break;
  }
  CodecConfig cfg;
  cfg.block_size = block_size;
  const StreamCodec codec(cfg);
  const auto result = codec.compress(data, ErrorBound::relative(rel));
  const auto back = codec.decompress(result.stream);
  ASSERT_EQ(back.size(), data.size());
  EXPECT_LE(test::max_err(data, back), result.eps_abs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamRoundTrip,
    ::testing::Combine(::testing::Values(1e-2, 1e-3, 1e-4),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(16u, 32u, 64u, 128u)));

}  // namespace
}  // namespace ceresz::core
