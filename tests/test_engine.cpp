#include "engine/parallel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "common/checksum.h"
#include "common/error.h"
#include "core/stream_codec.h"
#include "engine/bounded_queue.h"
#include "engine/thread_pool.h"
#include "io/chunk_container.h"
#include "test_util.h"

namespace ceresz::engine {
namespace {

EngineOptions small_chunks(u32 threads, u64 chunk_elems = 2048,
                           bool lenient = false) {
  EngineOptions opt;
  opt.threads = threads;
  opt.chunk_elems = chunk_elems;
  opt.lenient = lenient;
  return opt;
}

// --- container parity with the single-stream codec -------------------------

TEST(ParallelEngine, ChunkPayloadsBitIdenticalToStreamCodec) {
  const auto data = test::smooth_signal(100000);
  const core::StreamCodec codec;
  const auto single = codec.compress(data, core::ErrorBound::relative(1e-3));

  const ParallelEngine eng(small_chunks(4));
  const auto chunked = eng.compress(data, core::ErrorBound::relative(1e-3));

  EXPECT_EQ(chunked.eps_abs, single.eps_abs);
  const auto parsed = io::parse_container(chunked.stream);
  ASSERT_FALSE(parsed.entries.empty());

  // The concatenated chunk payloads must equal the single-stream body.
  std::span<const u8> body(single.stream.data() + core::StreamCodec::header_size(),
                           single.stream.size() - core::StreamCodec::header_size());
  std::span<const u8> payloads(chunked.stream.data() + parsed.entries[0].offset,
                               chunked.stream.size() - parsed.entries[0].offset);
  ASSERT_EQ(payloads.size(), body.size());
  EXPECT_TRUE(std::equal(payloads.begin(), payloads.end(), body.begin()));
}

TEST(ParallelEngine, MergedStatsMatchStreamCodec) {
  const auto data = test::sparse_signal(32 * 3000, 17, 0.02);
  const core::StreamCodec codec;
  const auto single = codec.compress(data, core::ErrorBound::absolute(1e-1));
  const ParallelEngine eng(small_chunks(3, 1024));
  const auto chunked = eng.compress(data, core::ErrorBound::absolute(1e-1));

  const auto& a = chunked.stats.stream;
  const auto& b = single.stats;
  EXPECT_EQ(a.total_blocks, b.total_blocks);
  EXPECT_EQ(a.zero_blocks, b.zero_blocks);
  EXPECT_EQ(a.constant_blocks, b.constant_blocks);
  EXPECT_EQ(a.max_fixed_length, b.max_fixed_length);
  EXPECT_DOUBLE_EQ(a.mean_fixed_length, b.mean_fixed_length);
  EXPECT_EQ(a.fl_histogram, b.fl_histogram);
}

// --- round trips ------------------------------------------------------------

TEST(ParallelEngine, RoundTripOddSizes) {
  const ParallelEngine eng(small_chunks(3, 256));
  for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 255u, 256u, 257u, 1000u,
                        4096u, 4097u}) {
    const auto data = test::smooth_signal(n);
    const auto result = eng.compress(data, core::ErrorBound::absolute(1e-3));
    EXPECT_EQ(result.element_count, n);
    const auto back = eng.decompress(result.stream);
    ASSERT_EQ(back.values.size(), n) << "n=" << n;
    EXPECT_TRUE(back.corrupt_chunks.empty());
    EXPECT_LE(test::max_err(data, back.values), 1e-3) << "n=" << n;
  }
}

TEST(ParallelEngine, EmptyInputRoundTrip) {
  const ParallelEngine eng(small_chunks(2));
  const std::vector<f32> empty;
  const auto result = eng.compress(empty, core::ErrorBound::relative(1e-3));
  EXPECT_EQ(result.element_count, 0u);
  const auto back = eng.decompress(result.stream);
  EXPECT_TRUE(back.values.empty());
  EXPECT_EQ(back.stats.chunks, 0u);
}

TEST(ParallelEngine, DeterministicAcrossThreadCounts) {
  const auto data = test::random_signal(50000, 5, -50.0, 50.0);
  std::vector<u8> reference;
  for (u32 threads : {1u, 2u, 5u, 8u}) {
    const ParallelEngine eng(small_chunks(threads, 4096));
    const auto result = eng.compress(data, core::ErrorBound::relative(1e-3));
    if (reference.empty()) {
      reference = result.stream;
    } else {
      EXPECT_EQ(result.stream, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelEngine, RelativeBoundMatchesStreamCodecEps) {
  // The parallel min/max reduction must resolve REL bounds to the exact
  // same eps as the single-threaded Welford pass.
  auto data = test::smooth_signal(10000);
  for (auto& v : data) v *= 321.0f;
  const core::StreamCodec codec;
  const auto single = codec.compress(data, core::ErrorBound::relative(1e-4));
  const ParallelEngine eng(small_chunks(4, 512));
  const auto chunked = eng.compress(data, core::ErrorBound::relative(1e-4));
  EXPECT_EQ(chunked.eps_abs, single.eps_abs);
  EXPECT_EQ(chunked.stream,
            eng.compress(data, core::ErrorBound::absolute(single.eps_abs))
                .stream);
}

// --- corruption handling ----------------------------------------------------

// Flip one payload byte of the given chunk; returns the flipped offset.
std::size_t corrupt_chunk(std::vector<u8>& stream, u64 chunk) {
  const auto parsed = io::parse_container(stream);
  const auto& e = parsed.entries[chunk];
  const std::size_t victim = e.offset + e.compressed_bytes / 2;
  stream[victim] ^= 0x5a;
  return victim;
}

TEST(ParallelEngine, StrictModeThrowsNamingTheCorruptChunk) {
  const auto data = test::smooth_signal(10000);
  const ParallelEngine eng(small_chunks(4, 1024));
  auto result = eng.compress(data, core::ErrorBound::absolute(1e-3));
  corrupt_chunk(result.stream, 3);
  try {
    eng.decompress(result.stream);
    FAIL() << "corrupt chunk was not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk 3"), std::string::npos)
        << "error does not localize the corruption: " << e.what();
  }
}

TEST(ParallelEngine, LenientModeZeroFillsOnlyTheCorruptChunk) {
  const auto data = test::smooth_signal(10000);
  const u64 chunk_elems = 1024;
  const ParallelEngine strict(small_chunks(4, chunk_elems));
  auto result = strict.compress(data, core::ErrorBound::absolute(1e-3));
  corrupt_chunk(result.stream, 3);

  const ParallelEngine lenient(small_chunks(4, chunk_elems, true));
  const auto back = lenient.decompress(result.stream);
  ASSERT_EQ(back.values.size(), data.size());
  ASSERT_EQ(back.corrupt_chunks, (std::vector<u64>{3}));

  for (std::size_t i = 0; i < data.size(); ++i) {
    const u64 chunk = i / chunk_elems;
    if (chunk == 3) {
      EXPECT_EQ(back.values[i], 0.0f) << "i=" << i;
    } else {
      EXPECT_LE(std::fabs(static_cast<f64>(data[i]) - back.values[i]), 1e-3)
          << "i=" << i;
    }
  }
}

// --- writing into caller memory ---------------------------------------------

std::span<const u8> bytes_of(std::span<const f32> values) {
  return {reinterpret_cast<const u8*>(values.data()),
          values.size() * sizeof(f32)};
}

/// A buffer of `n` values whose every byte is 0xFF (a NaN pattern), so a
/// value the engine did not write stands out.
std::vector<f32> poisoned(std::size_t n) {
  std::vector<f32> values(n);
  std::memset(values.data(), 0xff, n * sizeof(f32));
  return values;
}

TEST(ParallelEngine, DecompressIntoMatchesDecompress) {
  const auto data = test::smooth_signal(10000);
  for (u32 threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ParallelEngine eng(small_chunks(threads, 1024));
    const auto result = eng.compress(data, core::ErrorBound::relative(1e-3));
    const DecompressResult reference = eng.decompress(result.stream);

    std::vector<f32> buffer = poisoned(data.size() + 3);
    u64 asked = 0;
    const DecompressResult into =
        eng.decompress_into(result.stream, [&](u64 n) {
          asked = n;
          return std::span<f32>(buffer.data() + 1, n);
        });
    EXPECT_EQ(asked, data.size());
    EXPECT_TRUE(into.values.empty());
    const std::span<const f32> got(buffer.data() + 1, data.size());
    EXPECT_TRUE(std::equal(bytes_of(got).begin(), bytes_of(got).end(),
                           bytes_of(reference.values).begin()));
    // The neighbours of the span are untouched.
    EXPECT_EQ(std::bit_cast<u32>(buffer.front()), 0xffffffffu);
    EXPECT_EQ(std::bit_cast<u32>(buffer.back()), 0xffffffffu);
    EXPECT_EQ(into.values_crc32c, crc32c(bytes_of(got)));
    EXPECT_EQ(reference.values_crc32c, into.values_crc32c);
  }
}

TEST(ParallelEngine, DecompressIntoLenientCrcCoversZeroFilledChunk) {
  const auto data = test::smooth_signal(10000);
  const u64 chunk_elems = 1024;
  const ParallelEngine strict(small_chunks(4, chunk_elems));
  auto result = strict.compress(data, core::ErrorBound::absolute(1e-3));
  corrupt_chunk(result.stream, 2);

  const ParallelEngine lenient(small_chunks(4, chunk_elems, true));
  std::vector<f32> buffer = poisoned(data.size());
  const DecompressResult back = lenient.decompress_into(
      result.stream, [&](u64 n) { return std::span<f32>(buffer.data(), n); });
  ASSERT_EQ(back.corrupt_chunks, (std::vector<u64>{2}));
  for (u64 i = 2 * chunk_elems; i < 3 * chunk_elems; ++i) {
    ASSERT_EQ(std::bit_cast<u32>(buffer[i]), 0u) << "i=" << i;
  }
  EXPECT_EQ(back.values_crc32c, crc32c(bytes_of(buffer)));
}

TEST(ParallelEngine, DecompressIntoRejectsWrongSizedSinkBeforeWriting) {
  const auto data = test::smooth_signal(5000);
  const ParallelEngine eng(small_chunks(2, 1024));
  const auto result = eng.compress(data, core::ErrorBound::absolute(1e-3));
  for (std::size_t size : {data.size() - 1, data.size() + 1, std::size_t{0}}) {
    std::vector<f32> buffer = poisoned(data.size() + 1);
    EXPECT_THROW(eng.decompress_into(result.stream,
                                     [&](u64) {
                                       return std::span<f32>(buffer.data(),
                                                             size);
                                     }),
                 Error)
        << "size=" << size;
    EXPECT_TRUE(std::all_of(buffer.begin(), buffer.end(), [](f32 v) {
      return std::bit_cast<u32>(v) == 0xffffffffu;
    })) << "size=" << size;
  }
}

TEST(ParallelEngine, CompressIntoAppendsTheSameContainerAndItsCrc) {
  const auto data = test::smooth_signal(10000);
  for (u32 threads : {1u, 4u}) {
    const ParallelEngine eng(small_chunks(threads, 1024));
    for (const auto bound : {core::ErrorBound::relative(1e-3),
                             core::ErrorBound::absolute(1e-2)}) {
      const EngineResult reference = eng.compress(data, bound);
      EXPECT_EQ(reference.stream_bytes, reference.stream.size());
      EXPECT_EQ(reference.stream_crc32c, crc32c(reference.stream));

      std::vector<u8> out = {1, 2, 3};  // e.g. a frame header
      const EngineResult into = eng.compress_into(data, bound, out);
      EXPECT_TRUE(into.stream.empty());
      ASSERT_EQ(out.size(), 3 + reference.stream.size());
      EXPECT_TRUE(std::equal(reference.stream.begin(), reference.stream.end(),
                             out.begin() + 3));
      EXPECT_EQ(into.stream_bytes, reference.stream.size());
      EXPECT_EQ(into.stream_crc32c, reference.stream_crc32c);
      EXPECT_DOUBLE_EQ(into.compression_ratio(),
                       reference.compression_ratio());
    }
  }
  // An empty input is a bare header and chunk table.
  const ParallelEngine eng(small_chunks(2));
  std::vector<u8> out;
  const EngineResult empty =
      eng.compress_into({}, core::ErrorBound::absolute(1e-3), out);
  EXPECT_EQ(empty.stream_bytes, out.size());
  EXPECT_EQ(empty.stream_crc32c, crc32c(out));
}

TEST(ParallelEngine, EveryChunkIsIndividuallyProtected) {
  const auto data = test::smooth_signal(4096);
  const ParallelEngine eng(small_chunks(2, 1024));
  const auto clean = eng.compress(data, core::ErrorBound::absolute(1e-3));
  const auto parsed = io::parse_container(clean.stream);
  for (u64 c = 0; c < parsed.entries.size(); ++c) {
    auto stream = clean.stream;
    corrupt_chunk(stream, c);
    EXPECT_THROW(eng.decompress(stream), Error) << "chunk " << c;
  }
}

TEST(ParallelEngine, HeaderAndTableCorruptionDetected) {
  const auto data = test::smooth_signal(4096);
  const ParallelEngine eng(small_chunks(2, 1024));
  const auto clean = eng.compress(data, core::ErrorBound::absolute(1e-3));
  // Header field (element count).
  auto bad_header = clean.stream;
  bad_header[17] ^= 0xff;
  EXPECT_THROW(eng.decompress(bad_header), Error);
  // Chunk table entry (first chunk's CRC field).
  auto bad_table = clean.stream;
  bad_table[io::ChunkedHeader::kHeaderBytes + 24] ^= 0xff;
  EXPECT_THROW(eng.decompress(bad_table), Error);
  // Truncation.
  auto cut = clean.stream;
  cut.resize(cut.size() - 1);
  EXPECT_THROW(eng.decompress(cut), Error);
}

// --- hostile (crafted) container inputs ------------------------------------
// These streams carry *valid* header and table CRCs — the tampering happens
// before the CRCs are recomputed — so only the semantic validation in
// parse_container stands between them and the decoder.

void patch_u64(std::vector<u8>& s, std::size_t off, u64 v) {
  for (int b = 0; b < 8; ++b) s[off + b] = static_cast<u8>((v >> (8 * b)) & 0xff);
}

void patch_u32(std::vector<u8>& s, std::size_t off, u32 v) {
  for (int b = 0; b < 4; ++b) s[off + b] = static_cast<u8>((v >> (8 * b)) & 0xff);
}

// Recompute the header and chunk-table CRCs after tampering with fields.
void reseal(std::vector<u8>& s) {
  patch_u32(s, 44, crc32c(std::span<const u8>(s.data(), 44)));
  u32 chunk_count = 0;
  for (int b = 0; b < 4; ++b) chunk_count |= static_cast<u32>(s[12 + b]) << (8 * b);
  const std::size_t entry_bytes =
      static_cast<std::size_t>(chunk_count) * io::ChunkedHeader::kEntryBytes;
  patch_u32(s, io::ChunkedHeader::kHeaderBytes + entry_bytes,
            crc32c(std::span<const u8>(s.data() + io::ChunkedHeader::kHeaderBytes,
                                       entry_bytes)));
}

TEST(ParallelEngine, RejectsElementCountOverflowInChunkTable) {
  // Two chunks whose element counts wrap u64 back to the true total. With
  // unchecked accumulation this passes the sum check and turns into an
  // out-of-bounds write in decompress.
  const auto data = test::smooth_signal(2048);
  const ParallelEngine eng(small_chunks(2, 1024));
  auto stream = eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
  const auto parsed = io::parse_container(stream);
  ASSERT_EQ(parsed.entries.size(), 2u);
  const u64 huge = u64(1) << 63;
  patch_u64(stream, 24, huge);  // header chunk_elems
  const std::size_t t = io::ChunkedHeader::kHeaderBytes;
  patch_u64(stream, t + 16, huge);  // entry 0 element_count
  patch_u64(stream, t + io::ChunkedHeader::kEntryBytes + 16,
            2048 - 2 * huge);  // entry 1: wraps the sum back to 2048
  reseal(stream);
  EXPECT_THROW(io::parse_container(stream), Error);
  EXPECT_THROW(eng.decompress(stream), Error);
}

TEST(ParallelEngine, RejectsDecompressionBomb) {
  // A ~200-byte container claiming 2^40 elements must be rejected during
  // parsing, before decompress allocates terabytes for the output.
  const auto data = test::smooth_signal(1024);
  const ParallelEngine eng(small_chunks(2, 1024));
  auto stream = eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
  const u64 bomb = u64(1) << 40;
  patch_u64(stream, 16, bomb);  // header element_count
  patch_u64(stream, 24, bomb);  // header chunk_elems (keeps chunk_count = 1)
  patch_u64(stream, io::ChunkedHeader::kHeaderBytes + 16, bomb);  // entry
  reseal(stream);
  EXPECT_THROW(io::parse_container(stream), Error);
  EXPECT_THROW(eng.decompress(stream), Error);
}

TEST(ParallelEngine, RejectsInconsistentChunkCount) {
  const auto data = test::smooth_signal(2048);
  const ParallelEngine eng(small_chunks(2, 1024));
  auto stream = eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
  // Claim one huge chunk covers everything while two table entries remain.
  patch_u64(stream, 24, u64(1) << 32);  // header chunk_elems
  reseal(stream);
  EXPECT_THROW(io::parse_container(stream), Error);
}

TEST(ParallelEngine, RejectsPayloadLengthOverflow) {
  // compressed_bytes near 2^64 would wrap `offset + compressed_bytes` past
  // the stream-size bound and feed an out-of-range subspan to the reader.
  const auto data = test::smooth_signal(2048);
  const ParallelEngine eng(small_chunks(2, 1024));
  auto stream = eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
  patch_u64(stream, io::ChunkedHeader::kHeaderBytes + 8, ~u64(0) - 8);
  reseal(stream);
  EXPECT_THROW(io::parse_container(stream), Error);
}

TEST(ChunkContainer, WriterRejectsFieldsThatDoNotFitTheirEncoding) {
  std::vector<u8> out;
  io::ChunkedHeader header;
  header.chunk_count = 0;
  header.block_size = 0x10000;  // does not fit the u16 field
  EXPECT_THROW(io::write_container_prefix(out, header, {}), Error);
  out.clear();
  header.block_size = 32;
  header.codec_header_bytes = 0x100;  // does not fit the u8 field
  EXPECT_THROW(io::write_container_prefix(out, header, {}), Error);
}

TEST(ParallelEngine, RejectsLegacyStreamAndMismatchedConfig) {
  const auto data = test::smooth_signal(1024);
  const core::StreamCodec codec;
  const auto legacy = codec.compress(data, core::ErrorBound::absolute(1e-3));
  const ParallelEngine eng(small_chunks(2));
  EXPECT_FALSE(ParallelEngine::is_chunked_stream(legacy.stream));
  EXPECT_THROW(eng.decompress(legacy.stream), Error);

  const auto chunked = eng.compress(data, core::ErrorBound::absolute(1e-3));
  EXPECT_TRUE(ParallelEngine::is_chunked_stream(chunked.stream));
  EngineOptions other = small_chunks(2);
  other.codec.header_bytes = 1;
  const ParallelEngine reader(other);
  EXPECT_THROW(reader.decompress(chunked.stream), Error);
}

TEST(ParallelEngine, RejectsChunkElemsNotMultipleOfBlockSize) {
  EngineOptions opt;
  opt.chunk_elems = 100;  // not a multiple of 32
  EXPECT_THROW(ParallelEngine{opt}, Error);
}

// --- metrics ----------------------------------------------------------------

TEST(ParallelEngine, StatsSurfaceIsPopulated) {
  const auto data = test::smooth_signal(32768);
  const ParallelEngine eng(small_chunks(3, 1024));
  const auto result = eng.compress(data, core::ErrorBound::absolute(1e-3));
  const auto& s = result.stats;
  EXPECT_EQ(s.threads, 3u);
  EXPECT_EQ(s.chunks, 32u);
  EXPECT_EQ(s.uncompressed_bytes, data.size() * sizeof(f32));
  EXPECT_EQ(s.compressed_bytes, result.stream.size());
  EXPECT_EQ(s.worker_busy_seconds.size(), 3u);
  EXPECT_GT(s.busy_seconds_total(), 0.0);
  EXPECT_GT(s.wall_seconds, 0.0);
  EXPECT_GT(s.throughput_gbps(), 0.0);
  EXPECT_GE(s.queue_high_water, 1u);
  // Queue capacity defaults to 2 * threads; backpressure caps the backlog.
  EXPECT_LE(s.queue_high_water, 6u);

  const auto back = eng.decompress(result.stream);
  EXPECT_EQ(back.stats.chunks, 32u);
  EXPECT_EQ(back.stats.uncompressed_bytes, data.size() * sizeof(f32));
  EXPECT_GT(back.stats.wall_seconds, 0.0);
}

TEST(ParallelEngine, MetricsAccumulateAcrossRepeatedRuns) {
  // A long-running caller (the compression service, a batch loop) reuses
  // one engine for many compress()/decompress() calls against one
  // registry: every run must ADD to the counters, never reset them, and
  // totals must be exactly per-run value x runs.
  const auto data = test::smooth_signal(8192);
  obs::MetricsRegistry reg;
  EngineOptions opt = small_chunks(2, 1024);  // 8 chunks per compress
  opt.metrics = &reg;
  const ParallelEngine eng(opt);

  std::vector<u8> stream;
  for (int run = 1; run <= 3; ++run) {
    const auto result = eng.compress(data, core::ErrorBound::absolute(1e-3));
    stream = result.stream;
    EXPECT_EQ(reg.counter(kMetricChunks).value(),
              static_cast<u64>(run) * 8u)
        << "run " << run;
    EXPECT_EQ(reg.counter(kMetricUncompressedBytes).value(),
              static_cast<u64>(run) * data.size() * sizeof(f32));
    EXPECT_EQ(reg.counter(kMetricCompressedBytes).value(),
              static_cast<u64>(run) * stream.size());
  }
  for (int run = 1; run <= 2; ++run) {
    (void)eng.decompress(stream);
    // Decompress runs count their chunks into the same family.
    EXPECT_EQ(reg.counter(kMetricChunks).value(),
              (3u + static_cast<u64>(run)) * 8u)
        << "decompress run " << run;
  }

  // Concurrent reuse of ONE engine against one registry: totals still
  // come out exact (counters are sharded, merges are atomic).
  obs::MetricsRegistry shared;
  EngineOptions copt = small_chunks(2, 1024);
  copt.metrics = &shared;
  const ParallelEngine shared_eng(copt);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        (void)shared_eng.compress(data, core::ErrorBound::absolute(1e-3));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared.counter(kMetricChunks).value(), 4u * 3u * 8u);
}

// --- thread pool / bounded queue -------------------------------------------

TEST(BoundedQueue, BlocksProducersAtCapacityAndTracksHighWater) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.push(3);  // must block until a pop frees a slot
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.high_water(), 2u);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  q.close();
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.push(4));
}

TEST(ThreadPool, RunsEveryTaskAndReportsBusyTime) {
  ThreadPool pool(4, 2);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([&sum, i] { sum += i; });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(pool.busy_seconds().size(), 4u);
  EXPECT_GE(pool.queue_high_water(), 1u);
  EXPECT_LE(pool.queue_high_water(), 2u);
}

TEST(ThreadPool, TrySubmitFailsWhenFullAndRunOneInlineDrains) {
  // The help-drain protocol that ChunkRunner and WaferSimulator rely on
  // to share a pool without ever blocking on it.
  ThreadPool pool(2, 3);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> blocked{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      ++blocked;
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  }
  while (blocked.load() < 2) std::this_thread::yield();

  // Both workers are held: the queue fills, then refuses.
  const auto caller = std::this_thread::get_id();
  std::atomic<int> ran_on_caller{0};
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(pool.try_submit([&] {
      if (std::this_thread::get_id() == caller) ++ran_on_caller;
    }));
  }
  EXPECT_FALSE(pool.try_submit([] {}));
  EXPECT_EQ(pool.queue_depth(), 3u);

  // The caller drains the queue on its own thread, then finds it empty.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(pool.run_one_inline());
  EXPECT_EQ(ran_on_caller.load(), 3);
  EXPECT_FALSE(pool.run_one_inline());

  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.wait_idle();  // no tasks: returns immediately
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) pool.submit([&] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

}  // namespace
}  // namespace ceresz::engine
