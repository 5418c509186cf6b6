// Byte pins for every serialized format: each writer encodes one fixed
// seeded field and the output's size and CRC32C must match the constants
// below. The constants were captured from the writers as they stood
// before the formats moved onto the shared byte reader/writer
// (common/byte_io.h); any change to them is a wire-format change and must
// be deliberate.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/compressor.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "core/stream_codec.h"
#include "core/tiled_codec.h"
#include "engine/parallel_engine.h"
#include "huffman/huffman.h"
#include "io/archive.h"
#include "net/protocol.h"

namespace ceresz {
namespace {

constexpr std::size_t kWidth = 160;
constexpr std::size_t kHeight = 125;
constexpr std::size_t kCount = kWidth * kHeight;

/// A random walk (only integer-derived arithmetic, so it is the same on
/// every libm) with a flat zero stretch for zero blocks and periodic
/// spikes that the baselines must store as outliers.
std::vector<f32> pinned_field() {
  Rng rng(20240611);
  std::vector<f32> v(kCount);
  f64 x = 0.0;
  for (std::size_t i = 0; i < kCount; ++i) {
    x += rng.uniform(-0.05, 0.05);
    v[i] = static_cast<f32>(x);
    if (i >= 4000 && i < 5000) v[i] = 0.0f;
    if (i % 997 == 13) v[i] += 1000.0f;
  }
  return v;
}

data::Field pinned_grid() {
  data::Field f;
  f.dataset = "pin";
  f.name = "walk";
  f.dims = {kHeight, kWidth};
  f.values = pinned_field();
  return f;
}

const core::ErrorBound kBound = core::ErrorBound::absolute(1e-3);

void expect_pin(const char* name, std::span<const u8> bytes, u64 size,
                u32 crc) {
  EXPECT_EQ(bytes.size(), size) << name;
  EXPECT_EQ(crc32c(bytes), crc) << name;
}

TEST(FormatPins, StreamCodecCsz1) {
  const core::StreamCodec codec;
  expect_pin("CSZ1", codec.compress(pinned_field(), kBound).stream,
             30048, 0xab19320a);
}

TEST(FormatPins, ParallelEngineCszcAtOneAndFourThreads) {
  for (u32 threads : {1u, 4u}) {
    engine::EngineOptions opt;
    opt.threads = threads;
    opt.chunk_elems = 4096;
    const engine::ParallelEngine eng(opt);
    expect_pin(threads == 1 ? "CSZC t1" : "CSZC t4",
               eng.compress(pinned_field(), kBound).stream, 30236,
               0x3e95fbd3);
  }
}

TEST(FormatPins, Tiled2dCodecCsz2) {
  const core::Tiled2dCodec codec;
  expect_pin("CSZ2",
             codec.compress(pinned_field(), kWidth, kHeight, kBound).stream,
             31876, 0x39f0ed16);
}

TEST(FormatPins, ArchiveCsza) {
  data::Field second = pinned_grid();
  second.name = "walk-1d";
  second.dims = {kCount};
  const core::StreamCodec codec;
  const io::Archive archive =
      io::Archive::compress_fields({pinned_grid(), second}, kBound, codec);
  expect_pin("CSZA", archive.serialize(), 60175, 0xf06c9906);
}

TEST(FormatPins, CuszAndSz3Envelopes) {
  expect_pin("CSZR", baselines::make_cusz()->compress(pinned_grid(), kBound),
             17244, 0x283cf5e8);
  expect_pin("SZ3R", baselines::make_sz3()->compress(pinned_grid(), kBound),
             16765, 0xcdc7b02d);
}

TEST(FormatPins, HuffmanTable) {
  std::vector<u32> symbols;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const u64 alphabet = rng.next_below(300) + 1;
    symbols.push_back(static_cast<u32>(rng.next_below(alphabet)));
  }
  std::vector<u8> table;
  huffman::HuffmanCodec::from_symbols(symbols).serialize_table(table);
  expect_pin("Huffman table", table, 1439, 0x674fa0d9);
}

TEST(FormatPins, CsnpCompressFramesV3AndV4) {
  const std::vector<f32> values = pinned_field();
  engine::EngineOptions opt;
  opt.threads = 2;
  opt.chunk_elems = 4096;
  const auto cszc = engine::ParallelEngine(opt).compress(values, kBound).stream;

  net::CompressRequest req;
  req.bound = kBound;
  req.deadline_ms = 250;
  req.data = values;
  std::vector<u8> payload;
  net::append_compress_request(payload, req);

  const net::TenantTag tenant{7, net::kPriorityInteractive};
  const net::TraceTag trace{0x0123456789abcdefull, 0xfedcba9876543210ull};
  for (u8 version : {net::kProtocolVersionV3, net::kProtocolVersion}) {
    const net::FrameMeta meta(tenant, trace, version);
    const bool v4 = version == net::kProtocolVersion;
    std::vector<u8> request;
    net::append_frame(request, net::Opcode::kCompress, net::Status::kOk, 42,
                      payload, meta);
    expect_pin(v4 ? "CSNP v4 request" : "CSNP v3 request", request,
               v4 ? 80076 : 80060, v4 ? 0xbb79a63a : 0x14ae8018);
    std::vector<u8> response;
    net::append_frame(response, net::Opcode::kCompress, net::Status::kOk, 42,
                      cszc, meta);
    expect_pin(v4 ? "CSNP v4 response" : "CSNP v3 response", response,
               v4 ? 30288 : 30272, v4 ? 0x6a44441e : 0xd84032e0);
    std::vector<u8> values_frame;
    net::append_decompress_response_frame(values_frame, 43, values, meta);
    expect_pin(v4 ? "CSNP v4 values" : "CSNP v3 values", values_frame,
               v4 ? 80060 : 80044, v4 ? 0x2ee77f52 : 0xf07c2637);
  }
}

}  // namespace
}  // namespace ceresz
