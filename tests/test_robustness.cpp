// Robustness / failure-injection suite: corrupt, truncate, and mangle
// compressed streams. Every decoder in the library must either reproduce
// data or throw ceresz::Error — never crash, hang, or read out of bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <string>

#include "baselines/compressor.h"
#include "common/rng.h"
#include "core/stream_codec.h"
#include "core/tiled_codec.h"
#include "engine/parallel_engine.h"
#include "io/chunk_container.h"
#include "mapping/wafer_mapper.h"
#include "net/protocol.h"
#include "test_util.h"

namespace ceresz {
namespace {

// Decode and ignore the outcome; only crashes/UB are failures. Bit flips
// can produce a stream that still parses (flipping payload bits changes
// values, not structure), so a successful decode is acceptable.
template <typename Fn>
void expect_no_crash(Fn&& decode) {
  try {
    decode();
  } catch (const Error&) {
    // Structured rejection is the expected failure mode.
  }
}

class StreamFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(StreamFuzz, BitFlipsNeverCrashStreamCodec) {
  const core::StreamCodec codec;
  const auto data = test::smooth_signal(32 * 64, GetParam());
  auto result = codec.compress(data, core::ErrorBound::absolute(1e-3));
  Rng rng(GetParam() * 977 + 1);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = result.stream;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t byte = rng.next_below(corrupted.size());
      corrupted[byte] ^= static_cast<u8>(1u << rng.next_below(8));
    }
    expect_no_crash([&] { codec.decompress(corrupted); });
  }
}

TEST_P(StreamFuzz, TruncationsNeverCrashStreamCodec) {
  const core::StreamCodec codec;
  const auto data = test::smooth_signal(32 * 64, GetParam());
  const auto result = codec.compress(data, core::ErrorBound::absolute(1e-3));
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t cut = rng.next_below(result.stream.size());
    std::span<const u8> truncated(result.stream.data(), cut);
    expect_no_crash([&] { codec.decompress(truncated); });
  }
}

TEST_P(StreamFuzz, RandomBytesNeverCrashAnyDecoder) {
  Rng rng(GetParam() * 131 + 3);
  const core::StreamCodec stream_codec;
  const core::Tiled2dCodec tiled_codec;
  const auto sz3 = baselines::make_sz3();
  const auto cusz = baselines::make_cusz();
  const auto szp = baselines::make_szp();
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<u8> junk(16 + rng.next_below(4096));
    for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
    expect_no_crash([&] { stream_codec.decompress(junk); });
    expect_no_crash([&] {
      std::size_t w, h;
      tiled_codec.decompress(junk, w, h);
    });
    expect_no_crash([&] { sz3->decompress(junk); });
    expect_no_crash([&] { cusz->decompress(junk); });
    expect_no_crash([&] { szp->decompress(junk); });
  }
}

TEST_P(StreamFuzz, BitFlipsNeverCrashBaselines) {
  data::Field f;
  f.dataset = "fuzz";
  f.name = "x";
  f.values = test::smooth_signal(4000, GetParam());
  f.dims = {f.values.size()};
  const auto sz3 = baselines::make_sz3();
  const auto stream = sz3->compress(f, core::ErrorBound::absolute(1e-3),
                                    nullptr);
  Rng rng(GetParam() * 17 + 5);
  for (int trial = 0; trial < 60; ++trial) {
    auto corrupted = stream;
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<u8>(1u << rng.next_below(8));
    expect_no_crash([&] { sz3->decompress(corrupted); });
  }
}

// Differential check: the host decoder and the simulated wafer parse the
// same CSZ1 container and block records, so on any corrupted stream they
// must agree — both throw, or both return bit-identical values.
TEST_P(StreamFuzz, StreamCodecAndWaferMapperAgree) {
  const core::StreamCodec codec;
  mapping::MapperOptions opt;
  opt.rows = 2;
  opt.cols = 4;
  opt.pipeline_length = 1;
  const mapping::WaferMapper mapper(opt);
  const auto data = test::smooth_signal(4096, GetParam());
  const auto stream =
      codec.compress(data, core::ErrorBound::absolute(1e-3)).stream;

  int rejected = 0;
  auto expect_agreement = [&](std::span<const u8> s, const std::string& what) {
    std::optional<std::vector<f32>> host, wafer;
    try {
      host = codec.decompress(s);
    } catch (const Error&) {
    }
    try {
      wafer = mapper.decompress(s).output;
    } catch (const Error&) {
    }
    ASSERT_EQ(host.has_value(), wafer.has_value()) << what;
    if (!host) {
      ++rejected;
      return;
    }
    EXPECT_TRUE(std::equal(host->begin(), host->end(), wafer->begin(),
                           wafer->end(), [](f32 a, f32 b) {
                             return std::bit_cast<u32>(a) ==
                                    std::bit_cast<u32>(b);
                           }))
        << what;
  };

  // Every bit of the container header, then random bits of the records.
  Rng rng(GetParam() * 7919 + 13);
  for (std::size_t bit = 0; bit < 8 * core::StreamCodec::header_size();
       ++bit) {
    auto corrupted = stream;
    corrupted[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    expect_agreement(corrupted, "header bit " + std::to_string(bit));
  }
  for (int trial = 0; trial < 100; ++trial) {
    auto corrupted = stream;
    const std::size_t at = core::StreamCodec::header_size() +
                           rng.next_below(stream.size() -
                                          core::StreamCodec::header_size());
    corrupted[at] ^= static_cast<u8>(1u << rng.next_below(8));
    expect_agreement(corrupted, "payload byte " + std::to_string(at));
  }
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t cut = rng.next_below(stream.size());
    expect_agreement(std::span<const u8>(stream.data(), cut),
                     "cut at " + std::to_string(cut));
  }
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFuzz, ::testing::Values(1, 2, 3, 4));

// ---- Chunked "CSZC" container fuzz ----

engine::EngineOptions chunked_options(bool lenient = false) {
  engine::EngineOptions opt;
  opt.threads = 2;
  opt.chunk_elems = 256;  // 8 chunks for the 2048-element inputs below
  opt.lenient = lenient;
  return opt;
}

std::vector<u8> make_chunked_stream(u64 seed) {
  const engine::ParallelEngine eng(chunked_options());
  const auto data = test::smooth_signal(2048, seed);
  return eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
}

TEST_P(StreamFuzz, ChunkedHeaderAndTableFlipsAreRejectedStructurally) {
  const auto stream = make_chunked_stream(GetParam());
  // Every byte of the header and chunk table is covered by a CRC (or is
  // the magic/CRC itself), so ANY flip there must throw — in strict AND
  // lenient mode: lenient only forgives payload corruption, never a
  // container whose structure cannot be trusted.
  const std::size_t prefix = io::parse_container(stream).header.payload_start();
  const engine::ParallelEngine strict(chunked_options(false));
  const engine::ParallelEngine lenient(chunked_options(true));
  Rng rng(GetParam() * 271 + 9);
  for (int trial = 0; trial < 150; ++trial) {
    auto corrupted = stream;
    const std::size_t byte = rng.next_below(prefix);
    corrupted[byte] ^= static_cast<u8>(1u << rng.next_below(8));
    EXPECT_THROW(strict.decompress(corrupted), Error) << "byte " << byte;
    EXPECT_THROW(lenient.decompress(corrupted), Error) << "byte " << byte;
  }
}

TEST_P(StreamFuzz, ChunkedPayloadFlipsAreDetectedPerChunk) {
  const auto stream = make_chunked_stream(GetParam());
  const std::size_t prefix = io::parse_container(stream).header.payload_start();
  const engine::ParallelEngine strict(chunked_options(false));
  const engine::ParallelEngine lenient(chunked_options(true));
  Rng rng(GetParam() * 83 + 11);
  for (int trial = 0; trial < 40; ++trial) {
    auto corrupted = stream;
    const std::size_t byte =
        prefix + rng.next_below(corrupted.size() - prefix);
    corrupted[byte] ^= static_cast<u8>(1u << rng.next_below(8));
    // A single payload flip always changes the chunk's CRC32C: strict
    // throws, lenient quarantines exactly the flipped chunk.
    EXPECT_THROW(strict.decompress(corrupted), Error) << "byte " << byte;
    const auto recovered = lenient.decompress(corrupted);
    EXPECT_EQ(recovered.corrupt_chunks.size(), 1u) << "byte " << byte;
    EXPECT_EQ(recovered.stats.quarantined, 1u);
  }
}

TEST_P(StreamFuzz, ChunkedTruncationsAreRejectedStructurally) {
  const auto stream = make_chunked_stream(GetParam());
  const engine::ParallelEngine strict(chunked_options(false));
  const engine::ParallelEngine lenient(chunked_options(true));
  Rng rng(GetParam() * 47 + 13);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t cut = rng.next_below(stream.size());
    const std::vector<u8> truncated(stream.begin(), stream.begin() + cut);
    // The last chunk's payload runs to the final byte, so every proper
    // prefix breaks either the table or a chunk's recorded extent.
    EXPECT_THROW(strict.decompress(truncated), Error) << "cut " << cut;
    EXPECT_THROW(lenient.decompress(truncated), Error) << "cut " << cut;
  }
}

// ---- CSNP service-frame fuzz ----
// The network protocol parsers face bytes straight off a socket, so they
// get the same treatment as the stream decoders: flips, truncations, and
// junk must throw ceresz::Error — never crash or read out of bounds.

TEST_P(StreamFuzz, ServiceFramesNeverCrashTheProtocolParsers) {
  const auto data = test::smooth_signal(512, GetParam());
  net::CompressRequest creq;
  creq.bound = core::ErrorBound::relative(1e-3);
  creq.data = data;
  std::vector<u8> payload;
  net::append_compress_request(payload, creq);
  std::vector<u8> frame;
  net::append_frame(frame, net::Opcode::kCompress, net::Status::kOk,
                    /*request_id=*/7, payload);

  Rng rng(GetParam() * 193 + 21);
  for (int trial = 0; trial < 200; ++trial) {
    auto fuzzed = frame;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      fuzzed[rng.next_below(fuzzed.size())] ^=
          static_cast<u8>(1u << rng.next_below(8));
    }
    if (rng.next_below(3) == 0) fuzzed.resize(rng.next_below(fuzzed.size()));
    expect_no_crash([&] {
      const net::FrameHeader h = net::parse_frame_header(
          std::span<const u8>(fuzzed).subspan(
              0, std::min(fuzzed.size(), net::kFrameHeaderBytes)),
          net::kDefaultMaxPayload);
      // Only decode as much payload as actually exists — exactly what a
      // reader does after read_exact() succeeds; the decoder must then
      // reconcile the declared counts with the real size on its own.
      const std::size_t have =
          std::min<std::size_t>(fuzzed.size() - net::kFrameHeaderBytes,
                                static_cast<std::size_t>(h.payload_bytes));
      (void)net::decode_compress_request(
          std::span<const u8>(fuzzed).subspan(net::kFrameHeaderBytes, have));
    });
  }
}

// ---- Magic-value cross-feeding: every decoder rejects every other
// codec's streams. ----

TEST(CrossFeed, DecodersRejectEachOthersStreams) {
  data::Field f;
  f.dataset = "x";
  f.name = "y";
  f.values = test::smooth_signal(2048);
  f.dims = {f.values.size()};
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);

  const core::StreamCodec ceresz_codec;
  const auto ceresz_stream = ceresz_codec.compress(f.values, bound).stream;
  const auto sz3 = baselines::make_sz3();
  const auto sz3_stream = sz3->compress(f, bound, nullptr);
  const auto cusz = baselines::make_cusz();
  const auto cusz_stream = cusz->compress(f, bound, nullptr);

  EXPECT_THROW(ceresz_codec.decompress(sz3_stream), Error);
  EXPECT_THROW(ceresz_codec.decompress(cusz_stream), Error);
  EXPECT_THROW(sz3->decompress(ceresz_stream), Error);
  EXPECT_THROW(sz3->decompress(cusz_stream), Error);
  EXPECT_THROW(cusz->decompress(sz3_stream), Error);
  EXPECT_THROW(cusz->decompress(ceresz_stream), Error);
}

// ---- Extreme inputs ----

TEST(ExtremeInputs, HugeValuesAtTightBoundThrowCleanly) {
  const core::StreamCodec codec;
  std::vector<f32> huge(64, 3.0e9f);
  huge[0] = 0.0f;  // force a nonzero value range
  EXPECT_THROW(codec.compress(huge, core::ErrorBound::absolute(1e-6)), Error);
}

TEST(ExtremeInputs, DenormalsAndTinyValuesRoundTrip) {
  std::vector<f32> tiny(320);
  Rng rng(5);
  for (auto& v : tiny) {
    v = static_cast<f32>(rng.uniform(-1e-38, 1e-38));
  }
  const core::StreamCodec codec;
  const auto result = codec.compress(tiny, core::ErrorBound::absolute(1e-20));
  const auto back = codec.decompress(result.stream);
  EXPECT_LE(test::max_err(tiny, back), 1e-20 + test::f32_ulp_slack(tiny));
}

TEST(ExtremeInputs, AlternatingExtremesRoundTrip) {
  std::vector<f32> data(320);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (i % 2) ? 1000.0f : -1000.0f;
  }
  const core::StreamCodec codec;
  const auto result = codec.compress(data, core::ErrorBound::relative(1e-4));
  const auto back = codec.decompress(result.stream);
  EXPECT_LE(test::max_err(data, back),
            result.eps_abs + test::f32_ulp_slack(data));
}

TEST(ExtremeInputs, SingleElementStream) {
  const core::StreamCodec codec;
  const std::vector<f32> one = {42.0f};
  const auto result = codec.compress(one, core::ErrorBound::absolute(0.5));
  const auto back = codec.decompress(result.stream);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_NEAR(back[0], 42.0f, 0.5);
}

}  // namespace
}  // namespace ceresz
