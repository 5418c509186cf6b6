#include "mapping/wafer_mapper.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/stream_codec.h"
#include "test_util.h"

namespace ceresz::mapping {
namespace {

MapperOptions options(u32 rows, u32 cols, u32 pl = 1) {
  MapperOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.pipeline_length = pl;
  return opt;
}

// The central fidelity property: the bytes that come off the simulated
// wafer are identical to the host StreamCodec's output.
TEST(WaferMapper, StreamBitIdenticalToHostCodec) {
  const auto data = test::smooth_signal(32 * 64);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);

  const WaferMapper mapper(options(2, 8));
  const WaferRunResult wafer = mapper.compress(data, bound);

  const core::StreamCodec host;
  const auto host_result = host.compress(data, bound);

  EXPECT_FALSE(wafer.extrapolated);
  ASSERT_EQ(wafer.stream.size(), host_result.stream.size());
  EXPECT_EQ(wafer.stream, host_result.stream);
}

TEST(WaferMapper, StreamIdenticalAcrossPipelineLengths) {
  const auto data = test::smooth_signal(32 * 48, 3);
  const core::ErrorBound bound = core::ErrorBound::relative(1e-3);
  const core::StreamCodec host;
  const auto host_result = host.compress(data, bound);
  for (u32 pl : {1u, 2u, 3u, 4u}) {
    const WaferMapper mapper(options(1, 12, pl));
    const WaferRunResult wafer = mapper.compress(data, bound);
    EXPECT_EQ(wafer.stream, host_result.stream) << "pl=" << pl;
  }
}

TEST(WaferMapper, DecompressRoundTrip) {
  const auto data = test::smooth_signal(32 * 40, 5);
  const core::ErrorBound bound = core::ErrorBound::absolute(5e-4);
  const WaferMapper mapper(options(2, 6));
  const WaferRunResult comp = mapper.compress(data, bound);
  const WaferRunResult decomp = mapper.decompress(comp.stream);
  ASSERT_EQ(decomp.output.size(), data.size());
  EXPECT_LE(test::max_err(data, decomp.output), 5e-4);

  // And identical to the host decoder.
  const core::StreamCodec host;
  const auto host_back = host.decompress(comp.stream);
  EXPECT_EQ(decomp.output, host_back);
}

TEST(WaferMapper, DecompressionFasterThanCompression) {
  // Section 5.2: decompression does strictly less work per block.
  const auto data = test::smooth_signal(32 * 128, 7);
  const WaferMapper mapper(options(1, 8));
  const auto comp = mapper.compress(data, core::ErrorBound::absolute(1e-3));
  const auto decomp = mapper.decompress(comp.stream);
  EXPECT_GT(decomp.throughput_gbps, comp.throughput_gbps);
}

TEST(WaferMapper, TailBlockRoundTrips) {
  const auto data = test::smooth_signal(32 * 10 + 7, 9);
  const WaferMapper mapper(options(1, 4));
  const auto comp = mapper.compress(data, core::ErrorBound::absolute(1e-3));
  const auto decomp = mapper.decompress(comp.stream);
  ASSERT_EQ(decomp.output.size(), data.size());
  EXPECT_LE(test::max_err(data, decomp.output), 1e-3);
}

TEST(WaferMapper, MoreRowsMoreThroughput) {
  // Strategy 1 (Fig. 7): rows are independent -> near-linear scaling.
  const auto data = test::smooth_signal(32 * 256, 11);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);
  MapperOptions base = options(1, 4);
  base.collect_output = false;

  f64 t1 = 0, t4 = 0;
  {
    WaferMapper mapper(base);
    t1 = mapper.compress(data, bound).throughput_gbps;
  }
  {
    MapperOptions opt = base;
    opt.rows = 4;
    WaferMapper mapper(opt);
    t4 = mapper.compress(data, bound).throughput_gbps;
  }
  EXPECT_GT(t4, 3.0 * t1);
  EXPECT_LT(t4, 5.0 * t1);
}

TEST(WaferMapper, MoreColumnsMoreThroughput) {
  // Strategy 3: more pipelines per row raise throughput despite relaying.
  const auto data = test::smooth_signal(32 * 512, 13);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);
  MapperOptions narrow = options(1, 2);
  narrow.collect_output = false;
  MapperOptions wide = options(1, 16);
  wide.collect_output = false;
  const f64 t2 = WaferMapper(narrow).compress(data, bound).throughput_gbps;
  const f64 t16 = WaferMapper(wide).compress(data, bound).throughput_gbps;
  EXPECT_GT(t16, 4.0 * t2);  // near-linear up to relay overhead
}

TEST(WaferMapper, PipelineLengthOneIsFastest) {
  // Fig. 13: the full kernel on a single PE beats longer pipelines.
  const auto data = test::smooth_signal(32 * 256, 17);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);
  f64 prev = 1e30;
  for (u32 pl : {1u, 2u, 4u}) {
    MapperOptions opt = options(1, 8, pl);
    opt.collect_output = false;
    const f64 t = WaferMapper(opt).compress(data, bound).throughput_gbps;
    EXPECT_LT(t, prev * 1.05) << "pl=" << pl;  // non-increasing (5% slack)
    prev = t;
  }
}

TEST(WaferMapper, ExtrapolatedModeMatchesExactTiming) {
  // Simulating 2 of 4 rows must give (nearly) the same makespan as
  // simulating all 4 — rows are symmetric by construction.
  const auto data = test::smooth_signal(32 * 128, 19);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);
  MapperOptions exact = options(4, 4);
  exact.max_exact_rows = 4;
  exact.collect_output = false;
  MapperOptions extra = options(4, 4);
  extra.max_exact_rows = 2;
  extra.collect_output = false;
  const auto exact_run = WaferMapper(exact).compress(data, bound);
  const auto extra_run = WaferMapper(extra).compress(data, bound);
  EXPECT_FALSE(exact_run.extrapolated);
  EXPECT_TRUE(extra_run.extrapolated);
  const f64 ratio = static_cast<f64>(extra_run.makespan) /
                    static_cast<f64>(exact_run.makespan);
  EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(WaferMapper, ZeroBlocksRaiseThroughput) {
  // Section 5.2's error-bound/throughput coupling, reproduced causally:
  // the same data at a looser bound has more zero blocks and runs faster.
  const auto data = test::sparse_signal(32 * 256, 23, 0.02);
  MapperOptions opt = options(1, 4);
  opt.collect_output = false;
  const WaferMapper mapper(opt);
  const auto tight = mapper.compress(data, core::ErrorBound::relative(1e-4));
  const auto loose = mapper.compress(data, core::ErrorBound::relative(1e-1));
  EXPECT_GT(loose.throughput_gbps, tight.throughput_gbps);
}

TEST(WaferMapper, PlanRespectsPipelineLength) {
  const auto data = test::smooth_signal(32 * 16);
  const WaferMapper mapper(options(1, 6, 3));
  const auto run = mapper.compress(data, core::ErrorBound::absolute(1e-3));
  EXPECT_EQ(run.plan.length(), 3u);
  EXPECT_EQ(run.pipelines_per_row, 2u);
}

// Zeros in the first half, 5 + sin in the second, at ABS 1e-3.
std::vector<u8> host_stream(const core::CodecConfig& cfg) {
  std::vector<f32> data(4096, 0.0f);
  for (std::size_t i = data.size() / 2; i < data.size(); ++i) {
    data[i] = static_cast<f32>(5.0 + std::sin(static_cast<f64>(i)));
  }
  return core::StreamCodec(cfg)
      .compress(data, core::ErrorBound::absolute(1e-3))
      .stream;
}

std::string decompress_error(std::span<const u8> stream) {
  try {
    WaferMapper(options(2, 4)).decompress(stream);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// A stream written with another codec configuration must be rejected with
// the host codec's error, not decoded as garbage.
TEST(WaferMapper, RejectsStreamWithOtherBlockSize) {
  core::CodecConfig cfg;
  cfg.block_size = 16;
  EXPECT_NE(decompress_error(host_stream(cfg)).find("different block size"),
            std::string::npos);
}

TEST(WaferMapper, RejectsStreamWithOtherHeaderWidth) {
  core::CodecConfig cfg;
  cfg.header_bytes = 1;
  EXPECT_NE(decompress_error(host_stream(cfg))
                .find("different block header width"),
            std::string::npos);
}

TEST(WaferMapper, RejectsTrailingBytes) {
  auto stream = host_stream({});
  stream.insert(stream.end(), 100, u8{0xA5});
  EXPECT_NE(decompress_error(stream).find("trailing bytes"),
            std::string::npos);
}

TEST(WaferMapper, InvalidConfigThrows) {
  EXPECT_THROW(WaferMapper(options(0, 4)), Error);
  EXPECT_THROW(WaferMapper(options(1, 4, 5)), Error);  // PL > cols
}

// Property sweep: round trip through the wafer across bounds and shapes.
class WaferRoundTrip
    : public ::testing::TestWithParam<std::tuple<f64, int, u32>> {};

TEST_P(WaferRoundTrip, ErrorBoundHolds) {
  const auto [rel, kind, pl] = GetParam();
  std::vector<f32> data;
  switch (kind) {
    case 0: data = test::smooth_signal(32 * 32); break;
    case 1: data = test::random_signal(32 * 32, 3, -10.0, 10.0); break;
    default: data = test::sparse_signal(32 * 32, 5, 0.1); break;
  }
  const WaferMapper mapper(options(1, 2 * pl, pl));
  const auto comp = mapper.compress(data, core::ErrorBound::relative(rel));
  const auto decomp = mapper.decompress(comp.stream);
  ASSERT_EQ(decomp.output.size(), data.size());
  EXPECT_LE(test::max_err(data, decomp.output),
            comp.eps_abs + test::f32_ulp_slack(data));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WaferRoundTrip,
    ::testing::Combine(::testing::Values(1e-2, 1e-3, 1e-4),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 2u, 4u)));

}  // namespace
}  // namespace ceresz::mapping
