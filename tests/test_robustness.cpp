// Robustness / failure-injection suite: corrupt, truncate, and mangle
// compressed streams. Every decoder in the library must either reproduce
// data or throw ceresz::Error — never crash, hang, or read out of bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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

// Input policy: the host codec, the engine at 1 and 4 threads, and the
// simulated wafer take the same inputs. On each hostile input below they
// either all succeed with the same values within ε, or all throw an Error
// of the same kind — never a different verdict on one path.
TEST_P(StreamFuzz, EveryPathGivesTheSameVerdictOnHostileInput) {
  const u64 seed = GetParam();
  Rng rng(seed * 61 + 17);
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  const f32 inf = std::numeric_limits<f32>::infinity();
  const f32 fmax = std::numeric_limits<f32>::max();
  const auto rel = core::ErrorBound::relative(1e-3);
  const auto abs = core::ErrorBound::absolute(1e-3);
  const auto base = test::smooth_signal(2048, seed);
  const std::size_t mid = 256 * (1 + rng.next_below(6)) + 1 + rng.next_below(254);
  const auto with = [&](std::size_t at, f32 v) {
    auto d = base;
    d[at] = v;
    return d;
  };
  std::vector<f32> extremes = base;
  extremes[rng.next_below(256)] = fmax;
  extremes[mid] = -fmax;
  std::vector<f32> denormals(2048);
  for (auto& v : denormals) {
    v = static_cast<f32>(rng.uniform(-1e-39, 1e-39));
  }
  const auto invalid = std::optional(ErrorKind::kInvalidArgument);

  struct Case {
    std::string name;
    std::vector<f32> data;
    core::ErrorBound bound;
    std::optional<ErrorKind> want;  ///< nullopt: every path succeeds
  };
  const std::vector<Case> cases = {
      {"NaN at index 0, REL", with(0, nan), rel, invalid},
      {"NaN at index 0, ABS", with(0, nan), abs, invalid},
      {"NaN mid-chunk, REL", with(mid, nan), rel, invalid},
      {"NaN mid-chunk, ABS", with(mid, nan), abs, invalid},
      {"+Inf, REL", with(mid, inf), rel, invalid},
      {"-Inf, ABS", with(mid, -inf), abs, invalid},
      {"+-FLT_MAX at REL 1e-12", extremes, core::ErrorBound::relative(1e-12),
       invalid},
      {"denormals only", denormals, rel, std::nullopt},
      {"constant field", std::vector<f32>(2048, 3.25f), rel, std::nullopt},
      {"33-element tail", test::smooth_signal(2048 + 33, seed), rel,
       std::nullopt},
  };

  engine::EngineOptions one_thread;
  one_thread.threads = 1;
  one_thread.chunk_elems = 256;
  engine::EngineOptions four_threads = one_thread;
  four_threads.threads = 4;
  mapping::MapperOptions wafer_opt;
  wafer_opt.rows = 2;
  wafer_opt.cols = 4;
  wafer_opt.pipeline_length = 1;

  struct Outcome {
    std::optional<ErrorKind> kind;
    std::vector<f32> values;
    f64 eps = 0.0;
  };
  // Compress and decompress on one path; a throw from either ends it.
  const auto run = [](auto&& round_trip) {
    Outcome o;
    try {
      round_trip(o);
    } catch (const Error& e) {
      o.kind = e.kind();
    }
    return o;
  };

  for (const Case& c : cases) {
    const std::vector<std::pair<const char*, Outcome>> paths = {
        {"StreamCodec", run([&](Outcome& o) {
           const core::StreamCodec codec;
           const auto r = codec.compress(c.data, c.bound);
           o.eps = r.eps_abs;
           o.values = codec.decompress(r.stream);
         })},
        {"engine x1", run([&](Outcome& o) {
           const engine::ParallelEngine eng(one_thread);
           const auto r = eng.compress(c.data, c.bound);
           o.eps = r.eps_abs;
           o.values = eng.decompress(r.stream).values;
         })},
        {"engine x4", run([&](Outcome& o) {
           const engine::ParallelEngine eng(four_threads);
           const auto r = eng.compress(c.data, c.bound);
           o.eps = r.eps_abs;
           o.values = eng.decompress(r.stream).values;
         })},
        {"WaferMapper", run([&](Outcome& o) {
           const mapping::WaferMapper mapper(wafer_opt);
           const auto r = mapper.compress(c.data, c.bound);
           o.eps = r.eps_abs;
           o.values = mapper.decompress(r.stream).output;
         })},
    };
    const Outcome& ref = paths.front().second;
    EXPECT_EQ(ref.kind, c.want) << c.name;
    for (const auto& [path, o] : paths) {
      EXPECT_EQ(o.kind, ref.kind) << c.name << " on " << path;
      if (o.kind || ref.kind) continue;
      EXPECT_EQ(o.eps, ref.eps) << c.name << " on " << path;
      ASSERT_EQ(o.values.size(), c.data.size()) << c.name << " on " << path;
      EXPECT_LE(test::max_err(c.data, o.values),
                o.eps + test::f32_ulp_slack(c.data))
          << c.name << " on " << path;
      EXPECT_TRUE(std::equal(o.values.begin(), o.values.end(),
                             ref.values.begin(), ref.values.end(),
                             [](f32 a, f32 b) {
                               return std::bit_cast<u32>(a) ==
                                      std::bit_cast<u32>(b);
                             }))
          << c.name << " on " << path;
    }
  }
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
