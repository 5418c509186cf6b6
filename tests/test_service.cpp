// Service-layer suite: CSNP protocol codecs, BufferPool, and live
// loopback ServiceServer/CereszClient round trips — including the
// load-shedding (BUSY), deadline, and hostile-input paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/byte_io.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/parallel_engine.h"
#include "net/buffer_pool.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "test_util.h"

namespace ceresz::net {
namespace {

// --- protocol codecs --------------------------------------------------------

TEST(Protocol, FrameHeaderRoundTrip) {
  FrameHeader h;
  h.opcode = Opcode::kCompress;
  h.status = Status::kBusy;
  h.request_id = 0x0123456789abcdefull;
  h.payload_bytes = 12345;
  h.trace = TraceTag{0x123456789abcull, 42};
  std::vector<u8> bytes;
  append_frame_header(bytes, h);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytesV4);
  const FrameHeader back = parse_frame_header(bytes, kDefaultMaxPayload);
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.opcode, Opcode::kCompress);
  EXPECT_EQ(back.status, Status::kBusy);
  EXPECT_EQ(back.request_id, h.request_id);
  EXPECT_EQ(back.payload_bytes, h.payload_bytes);
  EXPECT_EQ(back.trace.trace_id, h.trace.trace_id);
  EXPECT_EQ(back.trace.parent_span_id, h.trace.parent_span_id);
}

TEST(Protocol, HeaderRejectsBadMagicVersionOpcodeAndOversize) {
  FrameHeader h;
  h.payload_bytes = 64;
  std::vector<u8> good;
  append_frame_header(good, h);

  auto bad = good;
  bad[0] ^= 0xff;  // magic
  EXPECT_THROW(parse_frame_header(bad, kDefaultMaxPayload), Error);
  bad = good;
  bad[4] = 99;  // version
  EXPECT_THROW(parse_frame_header(bad, kDefaultMaxPayload), Error);
  bad = good;
  bad[5] = 0;  // opcode below range
  EXPECT_THROW(parse_frame_header(bad, kDefaultMaxPayload), Error);
  bad[5] = 200;  // opcode above range
  EXPECT_THROW(parse_frame_header(bad, kDefaultMaxPayload), Error);
  // Anti-bomb: payload larger than the cap, including the u64 extremes.
  EXPECT_THROW(parse_frame_header(good, 63), Error);
  bad = good;
  for (int i = 16; i < 24; ++i) bad[i] = 0xff;  // payload_bytes = 2^64-1
  EXPECT_THROW(parse_frame_header(bad, kDefaultMaxPayload), Error);
  // Truncated header buffer.
  EXPECT_THROW(
      parse_frame_header(std::span<const u8>(good.data(), 23), kDefaultMaxPayload),
      Error);
}

TEST(Protocol, CompressRequestRoundTrip) {
  const auto data = test::smooth_signal(1000);
  CompressRequest req;
  req.bound = core::ErrorBound::relative(1e-3);
  req.deadline_ms = 250;
  req.data = data;
  std::vector<u8> payload;
  append_compress_request(payload, req);

  const CompressRequest back = decode_compress_request(payload);
  EXPECT_EQ(back.deadline_ms, 250u);
  EXPECT_EQ(back.bound.mode, req.bound.mode);
  EXPECT_EQ(back.bound.value, req.bound.value);
  ASSERT_EQ(back.data.size(), data.size());
  EXPECT_EQ(std::memcmp(back.data.data(), data.data(),
                        data.size() * sizeof(f32)),
            0);
}

TEST(Protocol, CompressRequestRejectsHostilePayloads) {
  const auto data = test::smooth_signal(64);
  CompressRequest req;
  req.bound = core::ErrorBound::absolute(1e-3);
  req.data = data;
  std::vector<u8> payload;
  append_compress_request(payload, req);

  // Truncated fixed part, truncated data, padded data.
  EXPECT_THROW(
      decode_compress_request(std::span<const u8>(payload.data(), 10)), Error);
  EXPECT_THROW(decode_compress_request(
                   std::span<const u8>(payload.data(), payload.size() - 4)),
               Error);
  auto padded = payload;
  padded.push_back(0);
  EXPECT_THROW(decode_compress_request(padded), Error);

  // element_count lying about the payload, including the wrap-around
  // value that an unchecked `count * 4` would accept.
  auto lied = payload;
  for (int b = 0; b < 8; ++b) lied[16 + b] = 0xff;
  EXPECT_THROW(decode_compress_request(lied), Error);
  lied = payload;
  const u64 wrap = u64{1} << 62;  // *4 wraps to 0
  for (int b = 0; b < 8; ++b) {
    lied[16 + b] = static_cast<u8>((wrap >> (8 * b)) & 0xff);
  }
  EXPECT_THROW(decode_compress_request(lied), Error);

  // Non-finite / non-positive bounds.
  auto bad_bound = payload;
  const f64 nan = std::numeric_limits<f64>::quiet_NaN();
  u64 bits;
  std::memcpy(&bits, &nan, sizeof(bits));
  for (int b = 0; b < 8; ++b) {
    bad_bound[8 + b] = static_cast<u8>((bits >> (8 * b)) & 0xff);
  }
  EXPECT_THROW(decode_compress_request(bad_bound), Error);
}

TEST(Protocol, EachErrorKindHasOneStatus) {
  EXPECT_EQ(status_for(ErrorKind::kInvalidArgument), Status::kBadRequest);
  EXPECT_EQ(status_for(ErrorKind::kCorruptData), Status::kCorruptStream);
  EXPECT_EQ(status_for(ErrorKind::kDeadline), Status::kDeadlineExpired);
  EXPECT_EQ(status_for(ErrorKind::kInternal), Status::kInternal);
}

TEST(Protocol, DecompressRequestAndResponseRoundTrip) {
  std::vector<u8> stream(333);
  Rng rng(3);
  for (auto& b : stream) b = static_cast<u8>(rng.next_u64());
  DecompressRequest req;
  req.deadline_ms = 42;
  req.stream = stream;
  std::vector<u8> payload;
  append_decompress_request(payload, req);
  const DecompressRequest back = decode_decompress_request(payload);
  EXPECT_EQ(back.deadline_ms, 42u);
  ASSERT_EQ(back.stream.size(), stream.size());
  EXPECT_EQ(std::memcmp(back.stream.data(), stream.data(), stream.size()), 0);

  // stream_bytes must match the remaining payload exactly.
  auto cut = payload;
  cut.pop_back();
  EXPECT_THROW(decode_decompress_request(cut), Error);
  auto padded = payload;
  padded.push_back(0);
  EXPECT_THROW(decode_decompress_request(padded), Error);

  const auto values = test::smooth_signal(100);
  std::vector<u8> resp;
  append_decompress_response(resp, values);
  std::vector<f32> decoded;
  decode_decompress_response(resp, decoded);
  ASSERT_EQ(decoded.size(), values.size());
  EXPECT_EQ(std::memcmp(decoded.data(), values.data(),
                        values.size() * sizeof(f32)),
            0);
  resp.pop_back();
  EXPECT_THROW(decode_decompress_response(resp, decoded), Error);
}

TEST(Protocol, InPlaceDecompressResponseFrameMatchesTwoStepFrame) {
  // The server frames DECOMPRESS results in place; the bytes must equal
  // the frame built from a separate payload buffer, in v3 and in v4.
  const auto values = test::smooth_signal(1001);
  for (const u8 version : {kProtocolVersionV3, kProtocolVersion}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, values.size()}) {
      const FrameMeta meta(TenantTag{7, 2}, TraceTag{0xabcdefull, 99},
                           version);
      const std::span<const f32> v(values.data(), n);
      std::vector<u8> body, two_step, in_place = {0xee};
      append_decompress_response(body, v);
      append_frame(two_step, Opcode::kDecompress, Status::kOk, 1234, body,
                   meta);
      append_decompress_response_frame(in_place, 1234, v, meta);
      ASSERT_EQ(in_place.size(), two_step.size() + 1);
      EXPECT_TRUE(std::equal(two_step.begin(), two_step.end(),
                             in_place.begin() + 1))
          << "version " << int{version} << ", " << n << " values";
    }
  }
}

TEST(Protocol, HostileBytesNeverCrashTheDecoders) {
  // test_robustness-style fuzz: random mutations of valid frames, plus
  // pure junk, must throw ceresz::Error — never crash or read OOB.
  const auto data = test::smooth_signal(256);
  CompressRequest creq;
  creq.bound = core::ErrorBound::relative(1e-3);
  creq.data = data;
  std::vector<u8> compress_payload;
  append_compress_request(compress_payload, creq);

  Rng rng(1234);
  for (int trial = 0; trial < 400; ++trial) {
    auto fuzzed = compress_payload;
    const int flips = 1 + static_cast<int>(rng.next_below(16));
    for (int f = 0; f < flips; ++f) {
      fuzzed[rng.next_below(fuzzed.size())] ^=
          static_cast<u8>(1u << rng.next_below(8));
    }
    if (rng.next_below(4) == 0) fuzzed.resize(rng.next_below(fuzzed.size()));
    try {
      (void)decode_compress_request(fuzzed);
    } catch (const Error&) {
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<u8> junk(rng.next_below(256));
    for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
    try {
      (void)parse_frame_header(junk, kDefaultMaxPayload);
    } catch (const Error&) {
    }
    try {
      (void)decode_compress_request(junk);
    } catch (const Error&) {
    }
    try {
      (void)decode_decompress_request(junk);
    } catch (const Error&) {
    }
    try {
      std::vector<f32> out;
      decode_decompress_response(junk, out);
    } catch (const Error&) {
    }
  }
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, ReusesCapacityAndCountsHitsAndMisses) {
  obs::Counter hits, misses;
  BufferPool pool(4, &hits, &misses);
  const u8* grown = nullptr;
  {
    PooledBuffer buf = pool.acquire();
    EXPECT_EQ(misses.value(), 1u);  // empty pool: a miss
    buf->resize(1 << 16);
    grown = buf->data();
  }  // released back to the pool, capacity intact
  EXPECT_EQ(pool.pooled(), 1u);
  {
    PooledBuffer buf = pool.acquire();
    EXPECT_EQ(hits.value(), 1u);
    EXPECT_TRUE(buf->empty());  // size reset...
    EXPECT_GE(buf->capacity(), std::size_t{1} << 16);  // ...capacity kept
    EXPECT_EQ(buf->data(), grown) << "hit did not reuse the same allocation";
  }
}

TEST(BufferPool, FreeListIsBounded) {
  BufferPool pool(2);
  {
    std::vector<PooledBuffer> held;
    for (int i = 0; i < 5; ++i) held.push_back(pool.acquire());
  }
  EXPECT_EQ(pool.pooled(), 2u);  // 3 of the 5 were freed, not pooled
}

// --- live server round trips ------------------------------------------------

ServerOptions test_server(u32 workers = 2) {
  ServerOptions opt;
  opt.port = 0;  // ephemeral
  opt.workers = workers;
  opt.engine.threads = 2;
  opt.engine.chunk_elems = 2048;
  return opt;
}

TEST(Service, RoundTripMatchesLocalEngineByteForByte) {
  ServiceServer server(test_server());
  server.start();

  CereszClient client;
  client.connect("127.0.0.1", server.port());
  EXPECT_GT(client.ping(), 0.0);

  const auto data = test::smooth_signal(10000);
  const auto bound = core::ErrorBound::relative(1e-3);
  const std::vector<u8> remote = client.compress(data, bound);

  engine::EngineOptions local_opt;
  local_opt.threads = 2;
  local_opt.chunk_elems = 2048;
  const engine::ParallelEngine local(local_opt);
  const auto reference = local.compress(data, bound);
  EXPECT_EQ(remote, reference.stream)
      << "service container differs from the CLI/engine path";

  const std::vector<f32> values = client.decompress(remote);
  ASSERT_EQ(values.size(), data.size());
  const auto local_back = local.decompress(reference.stream);
  EXPECT_EQ(std::memcmp(values.data(), local_back.values.data(),
                        values.size() * sizeof(f32)),
            0);

  const std::string stats = client.stats_json();
  EXPECT_NE(stats.find(kMetricRequests), std::string::npos);
  EXPECT_NE(stats.find("ceresz_engine_chunks_total"), std::string::npos);

  server.stop();
  EXPECT_EQ(server.metrics().counter(kMetricCompressRequests).value(), 1u);
  EXPECT_EQ(server.metrics().counter(kMetricDecompressRequests).value(), 1u);
  EXPECT_EQ(server.metrics().counter(kMetricErrorResponses).value(), 0u);
}

TEST(Service, EmptyDataRoundTrip) {
  ServiceServer server(test_server());
  server.start();
  CereszClient client;
  client.connect("127.0.0.1", server.port());
  const std::vector<f32> empty;
  const auto stream = client.compress(empty, core::ErrorBound::absolute(1e-3));
  EXPECT_TRUE(client.decompress(stream).empty());
}

TEST(Service, ConcurrentClientsAllRoundTrip) {
  ServiceServer server(test_server(/*workers=*/4));
  server.start();
  const u16 port = server.port();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      try {
        CereszClient client;
        client.connect("127.0.0.1", port);
        const auto data = test::smooth_signal(8192, 100 + c);
        for (int r = 0; r < 3; ++r) {
          const auto stream =
              client.compress(data, core::ErrorBound::relative(1e-3));
          const auto values = client.decompress(stream);
          if (values.size() != data.size() ||
              test::max_err(data, values) > 1e-2) {
            ++failures;
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.metrics().counter(kMetricCompressRequests).value(), 12u);
  EXPECT_EQ(server.metrics().counter(kMetricConnections).value(), 4u);
}

TEST(Service, ShedsLoadWithBusyWhenInflightLimitIsReached) {
  // One worker, in-flight limit 1, and a fault plan that stalls the only
  // chunk's first attempt: while client A's request occupies the limit,
  // client B must be rejected with an immediate BUSY error frame.
  ServerOptions opt = test_server(/*workers=*/1);
  opt.max_inflight = 1;
  opt.engine.chunk_elems = 65536;  // one chunk
  opt.engine.faults.stall_chunk(0, /*attempts=*/1);
  opt.engine.faults.stall_ms = 400;
  ServiceServer server(std::move(opt));
  server.start();
  const u16 port = server.port();

  const auto data = test::smooth_signal(4096);
  std::atomic<bool> a_ok{false};
  std::thread slow([&] {
    CereszClient a;
    a.connect("127.0.0.1", port);
    const auto stream = a.compress(data, core::ErrorBound::absolute(1e-3));
    a_ok = !stream.empty();
  });

  // Give A's request time to be admitted and start stalling.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  CereszClient b;
  b.connect("127.0.0.1", port);
  try {
    (void)b.compress(data, core::ErrorBound::absolute(1e-3));
    FAIL() << "expected a BUSY rejection while the server was saturated";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::kBusy);
  }
  slow.join();
  EXPECT_TRUE(a_ok.load()) << "the admitted request must still complete";
  EXPECT_GE(server.metrics().counter(kMetricBusyRejected).value(), 1u);

  // The rejected client's connection survives; once the stall is over it
  // can retry successfully — BUSY is backpressure, not a hang-up.
  const auto retry = b.compress(data, core::ErrorBound::absolute(1e-3));
  EXPECT_FALSE(retry.empty());
}

TEST(Service, DeadlineExpiryProducesAnErrorFrameNotAHang) {
  // Every attempt at the only chunk stalls for far longer than the
  // request deadline: each attempt's deadline (clamped to the remaining
  // budget) times it out and the client gets DEADLINE_EXPIRED.
  ServerOptions opt = test_server(/*workers=*/1);
  opt.engine.chunk_elems = 65536;
  opt.engine.faults.stall_chunk(0, /*attempts=*/3);
  opt.engine.faults.stall_ms = 1000;
  ServiceServer server(std::move(opt));
  server.start();

  CereszClient client;
  client.connect("127.0.0.1", server.port());
  const auto data = test::smooth_signal(4096);
  const u64 t0 = now_ns();
  try {
    (void)client.compress(data, core::ErrorBound::absolute(1e-3),
                          /*deadline_ms=*/60);
    FAIL() << "expected DEADLINE_EXPIRED";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::kDeadlineExpired) << e.what();
  }
  // The rejection must come from the deadline machinery, not from the
  // stall running to completion (1 s x 3 attempts).
  EXPECT_LT(static_cast<f64>(now_ns() - t0) * 1e-9, 1.5);
  EXPECT_GE(server.metrics().counter(kMetricDeadlineExpired).value(), 1u);

  // The connection is still usable for an undeadlined request (attempt 3
  // of chunk 0 is past the fault plan, but a fresh request starts at
  // attempt 0 again — so give this one room to outlive one stall).
  const auto ok = client.compress(data, core::ErrorBound::absolute(1e-3));
  EXPECT_FALSE(ok.empty());
}

TEST(Service, ARequestDeadlineAddsNoLatency) {
  // A deadline the request easily meets must not slow it down: the engine
  // compares each attempt's expiry against the clock instead of waiting
  // on a helper thread.
  ServiceServer server(test_server());
  server.start();
  CereszClient client;
  client.connect("127.0.0.1", server.port());
  const auto data = test::smooth_signal(16384);
  const auto bound = core::ErrorBound::absolute(1e-3);
  const std::vector<u8> reference = client.compress(data, bound);

  std::vector<f64> plain_ms, deadline_ms;
  auto timed = [&](u32 request_deadline_ms, std::vector<f64>& ms) {
    const u64 t0 = now_ns();
    const std::vector<u8> stream =
        client.compress(data, bound, request_deadline_ms);
    ms.push_back(static_cast<f64>(now_ns() - t0) * 1e-6);
    EXPECT_EQ(stream, reference);
  };
  for (int i = 0; i < 20; ++i) {
    timed(0, plain_ms);
    timed(2000, deadline_ms);
  }
  const f64 plain_p50 = test::median(plain_ms);
  const f64 deadline_p50 = test::median(deadline_ms);
  EXPECT_LE(deadline_p50, 2.0 * plain_p50 + 2.0)
      << "no deadline: " << plain_p50 << " ms, deadline: " << deadline_p50
      << " ms";
  EXPECT_EQ(server.metrics().counter(kMetricErrorResponses).value(), 0u);
}

TEST(Service, CorruptStreamGetsTypedErrorAndConnectionSurvives) {
  ServiceServer server(test_server());
  server.start();
  CereszClient client;
  client.connect("127.0.0.1", server.port());

  std::vector<u8> junk(500);
  Rng rng(9);
  for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
  try {
    (void)client.decompress(junk);
    FAIL() << "expected CORRUPT_STREAM";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::kCorruptStream) << e.what();
  }

  // Error frames are responses, not hang-ups: the same connection then
  // serves a valid round trip.
  const auto data = test::smooth_signal(2048);
  const auto stream = client.compress(data, core::ErrorBound::relative(1e-3));
  const auto values = client.decompress(stream);
  EXPECT_EQ(values.size(), data.size());
  EXPECT_EQ(server.metrics().counter(kMetricErrorResponses).value(), 1u);
}

/// The status of the ServiceError `call` throws; kOk if it returns.
template <class Call>
Status status_of(Call&& call) {
  try {
    call();
  } catch (const ServiceError& e) {
    return e.status();
  }
  return Status::kOk;
}

TEST(Service, CallerFaultsAreBadRequestsAndTheConnectionSurvives) {
  ServiceServer server(test_server());
  server.start();
  CereszClient client;
  client.connect("127.0.0.1", server.port());
  const auto data = test::smooth_signal(4096);
  const auto expect_round_trip = [&] {
    const auto stream = client.compress(data, core::ErrorBound::relative(1e-3));
    EXPECT_EQ(client.decompress(stream).size(), data.size());
  };
  u64 rejected = 0;
  const auto expect_status = [&](Status want, auto&& call, const char* what) {
    EXPECT_EQ(status_name(status_of(call)), std::string(status_name(want)))
        << what;
    ++rejected;
    expect_round_trip();  // an error frame is a response, not a hang-up
  };

  // Non-finite input, first or mid-chunk, under either bound mode: the
  // engine rejects it on the first attempt, with no retry.
  const f32 inf = std::numeric_limits<f32>::infinity();
  for (const f32 bad : {std::numeric_limits<f32>::quiet_NaN(), inf, -inf}) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{2500}}) {
      auto input = data;
      input[at] = bad;
      for (const auto bound : {core::ErrorBound::relative(1e-3),
                               core::ErrorBound::absolute(1e-3)}) {
        expect_status(
            Status::kBadRequest,
            [&] { (void)client.compress(input, bound); }, "non-finite input");
      }
    }
  }
  // An ε too small for the data's magnitude.
  std::vector<f32> hundreds(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) hundreds[i] = 100.0f + data[i];
  expect_status(
      Status::kBadRequest,
      [&] {
        (void)client.compress(hundreds, core::ErrorBound::absolute(1e-12));
      },
      "eps too small");
  // A NaN or negative bound is rejected while the payload is decoded.
  for (const f64 value : {std::numeric_limits<f64>::quiet_NaN(), -1e-3}) {
    expect_status(
        Status::kBadRequest,
        [&] { (void)client.compress(data, core::ErrorBound::absolute(value)); },
        "bad bound");
  }
  // Random bytes are a corrupt stream, not the caller's malformed frame.
  std::vector<u8> junk(500);
  Rng rng(21);
  for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
  expect_status(
      Status::kCorruptStream, [&] { (void)client.decompress(junk); },
      "random stream");

  server.stop();
  obs::MetricsRegistry& m = server.metrics();
  EXPECT_EQ(m.counter(kMetricErrorResponses).value(), rejected);
  EXPECT_EQ(m.counter(kMetricMalformed).value(), 0u);
  EXPECT_EQ(m.counter(engine::kMetricRetries).value(), 0u);
}

TEST(Service, OversizedFrameIsRejectedAsMalformed) {
  ServerOptions opt = test_server();
  opt.max_frame_payload = 1 << 16;  // 64 KiB cap
  ServiceServer server(std::move(opt));
  server.start();

  CereszClient client;
  client.connect("127.0.0.1", server.port());
  const auto big = test::smooth_signal(1 << 15);  // 128 KiB of f32 payload
  try {
    (void)client.compress(big, core::ErrorBound::absolute(1e-3));
    FAIL() << "expected a MALFORMED rejection";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::kMalformed) << e.what();
  } catch (const Error&) {
    // Equally acceptable: the server hung up after the error frame and
    // the client saw the closed socket first.
  }
  EXPECT_GE(server.metrics().counter(kMetricMalformed).value(), 1u);
}

TEST(Service, GarbageBytesDoNotKillTheServer) {
  ServiceServer server(test_server());
  server.start();
  const u16 port = server.port();

  // Blast junk at the listener from several raw sockets. The readers
  // must answer with a malformed error frame and/or hang up — and the
  // server must keep serving well-formed clients afterwards.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    Socket raw = connect_to("127.0.0.1", port);
    std::vector<u8> junk(1 + rng.next_below(256));
    for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
    try {
      raw.write_all(junk);
      raw.shutdown_both();
    } catch (const Error&) {
      // The server may hang up mid-write; that is fine.
    }
  }

  CereszClient client;
  client.connect("127.0.0.1", port);
  const auto data = test::smooth_signal(2048);
  const auto stream = client.compress(data, core::ErrorBound::relative(1e-3));
  EXPECT_EQ(client.decompress(stream).size(), data.size());
}

TEST(Service, StopUnblocksIdleConnectionsAndIsIdempotent) {
  auto server = std::make_unique<ServiceServer>(test_server());
  server->start();
  CereszClient idle;
  idle.connect("127.0.0.1", server->port());  // connected, never sends
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->stop();
  server->stop();  // idempotent
  EXPECT_FALSE(server->running());
  server.reset();  // destructor after explicit stop is fine too
}

TEST(Service, StopWithRequestsInFlightDoesNotHang) {
  // A request is mid-execution (stalled chunk) when stop() lands. The
  // shutdown sequence lets workers drain what was queued, so stop()
  // must return promptly — after the stall, never wedged.
  ServerOptions opt = test_server(/*workers=*/1);
  opt.engine.chunk_elems = 65536;  // one chunk
  opt.engine.faults.stall_chunk(0, /*attempts=*/1);
  opt.engine.faults.stall_ms = 300;
  ServiceServer server(std::move(opt));
  server.start();
  const u16 port = server.port();

  const auto data = test::smooth_signal(4096);
  std::thread slow([&] {
    try {
      CereszClient a;
      a.connect("127.0.0.1", port);
      (void)a.compress(data, core::ErrorBound::absolute(1e-3));
    } catch (const Error&) {
      // stop() may hang up before the response; either way is fine —
      // the point is that nothing hangs or crashes.
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const u64 t0 = now_ns();
  server.stop();
  EXPECT_LT(static_cast<f64>(now_ns() - t0) * 1e-9, 5.0)
      << "stop() wedged behind an in-flight request";
  slow.join();
}

TEST(Service, RestartOnTheSamePortWorks) {
  // Stop must release the port completely: a new server (and a
  // restarted one) binds the same port and serves.
  const auto data = test::smooth_signal(2048);
  const auto bound = core::ErrorBound::relative(1e-3);
  u16 port = 0;
  {
    ServiceServer first(test_server());
    first.start();
    port = first.port();
    CereszClient client;
    client.connect("127.0.0.1", port);
    EXPECT_FALSE(client.compress(data, bound).empty());
    first.stop();
  }

  ServerOptions opt = test_server();
  opt.port = port;  // the exact port the first server just released
  ServiceServer second(std::move(opt));
  second.start();
  EXPECT_EQ(second.port(), port);
  CereszClient client;
  client.connect("127.0.0.1", port);
  EXPECT_FALSE(client.compress(data, bound).empty());
  second.stop();

  // Same OBJECT restarted: start/stop/start on one ServiceServer.
  second.start();
  CereszClient again;
  again.connect("127.0.0.1", second.port());
  EXPECT_FALSE(again.compress(data, bound).empty());
  second.stop();
}

// --- the client's wire bytes, seen by a raw socket ---------------------------

/// One frame as it crossed the wire: its parsed header and every byte.
struct WireFrame {
  FrameHeader header;
  std::vector<u8> bytes;

  std::span<const u8> payload() const {
    return std::span<const u8>(bytes).subspan(
        frame_header_bytes(header.version));
  }
};

WireFrame read_wire_frame(const Socket& sock) {
  std::array<u8, kFrameHeaderBytesV4> hdr{};
  sock.read_exact(std::span<u8>(hdr.data(), kFrameHeaderBytes));
  const std::size_t len = frame_header_bytes(hdr[4]);
  sock.read_exact(
      std::span<u8>(hdr.data() + kFrameHeaderBytes, len - kFrameHeaderBytes));
  WireFrame f;
  f.header = parse_frame_header(std::span<const u8>(hdr.data(), len),
                                kDefaultMaxPayload);
  f.bytes.assign(hdr.begin(), hdr.begin() + len);
  f.bytes.resize(len + f.header.payload_bytes);
  sock.read_exact(std::span<u8>(f.bytes).subspan(len));
  return f;
}

/// A stand-in server on a raw TcpListener: for each of `connections`
/// accepted connections it runs `serve`, which reads request frames and
/// writes whatever answers the test wants. Failures inside the thread,
/// and connections that never came, are reported by join().
class RawServer {
 public:
  using Serve = std::function<void(const Socket&)>;

  RawServer(u32 connections, Serve serve) : listener_(0) {
    thread_ = std::thread([this, connections, serve = std::move(serve)] {
      try {
        for (u32 i = 0; i < connections; ++i) {
          const Socket sock = listener_.accept_connection();
          if (!sock.valid()) {
            error_ = "only " + std::to_string(i) + " of " +
                     std::to_string(connections) + " connections came";
            return;
          }
          serve(sock);
        }
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~RawServer() { join(); }

  u16 port() const { return listener_.port(); }

  /// Stop accepting and wait for the serve loop; returns its error, if
  /// any. Call once the client is done: every request it completed has
  /// already been served.
  std::string join() {
    listener_.shutdown();
    if (thread_.joinable()) thread_.join();
    return error_;
  }

 private:
  TcpListener listener_;
  std::thread thread_;
  std::string error_;
};

std::vector<u8> response_frame(const WireFrame& req, Status status,
                               std::span<const u8> payload) {
  std::vector<u8> out;
  append_frame(out, req.header.opcode, status, req.header.request_id, payload,
               echo_meta(req.header));
  return out;
}

TEST(ClientWire, RequestFramesEqualTheReferenceEncoding) {
  const auto data = test::smooth_signal(3000);
  const std::vector<u8> container = {7, 8, 9, 10, 11};
  const std::vector<f32> values = {1.5f, -2.0f, 0.25f};
  for (u8 version : {kProtocolVersionV3, kProtocolVersion}) {
    SCOPED_TRACE("version=" + std::to_string(version));
    std::vector<WireFrame> seen;
    RawServer raw(1, [&](const Socket& sock) {
      seen.push_back(read_wire_frame(sock));
      sock.write_all(response_frame(seen.back(), Status::kOk, container));
      seen.push_back(read_wire_frame(sock));
      std::vector<u8> out;
      append_decompress_response_frame(out, seen.back().header.request_id,
                                       values, echo_meta(seen.back().header));
      sock.write_all(out);
    });

    CereszClient client;
    client.set_protocol_version(version);
    client.set_tenant(42, kPriorityInteractive);
    client.connect("127.0.0.1", raw.port());
    const auto bound = core::ErrorBound::relative(1e-3);
    EXPECT_EQ(client.compress(data, bound, 250), container);
    EXPECT_EQ(client.decompress(container, 300), values);
    ASSERT_EQ(raw.join(), "");
    ASSERT_EQ(seen.size(), 2u);

    // The reference: the payload encoders, then append_frame, stamped
    // with the trace context the attempt put on the wire (v3 carries
    // none).
    const auto reference = [&](const WireFrame& f,
                               const std::vector<u8>& payload) {
      std::vector<u8> frame;
      append_frame(frame, f.header.opcode, Status::kOk, f.header.request_id,
                   payload,
                   FrameMeta(TenantTag{42, kPriorityInteractive},
                             f.header.trace, version));
      return frame;
    };
    std::vector<u8> compress_payload;
    append_compress_request(compress_payload, CompressRequest{bound, 250, data});
    std::vector<u8> decompress_payload;
    append_decompress_request(decompress_payload,
                              DecompressRequest{300, container});
    EXPECT_EQ(seen[0].header.opcode, Opcode::kCompress);
    EXPECT_EQ(seen[0].bytes, reference(seen[0], compress_payload));
    EXPECT_EQ(seen[1].header.opcode, Opcode::kDecompress);
    EXPECT_EQ(seen[1].bytes, reference(seen[1], decompress_payload));
    for (const WireFrame& f : seen) {
      EXPECT_EQ(f.header.version, version);
      EXPECT_TRUE(payload_crc_ok(f.header, f.payload()));
      EXPECT_EQ(f.header.trace.trace_id != 0, version == kProtocolVersion);
    }
  }
}

TEST(ClientWire, BusyRetryResendsAFrameTheServerCrcAccepts) {
  const auto data = test::smooth_signal(2000);
  const std::vector<u8> container = {1, 2, 3, 4};
  const std::vector<f32> values = {3.0f, 4.0f};
  std::vector<WireFrame> seen;
  RawServer raw(1, [&](const Socket& sock) {
    for (Opcode op : {Opcode::kCompress, Opcode::kDecompress}) {
      seen.push_back(read_wire_frame(sock));
      std::vector<u8> busy;
      append_error_frame(busy, op, Status::kBusy, seen.back().header.request_id,
                         "busy", echo_meta(seen.back().header));
      sock.write_all(busy);
      seen.push_back(read_wire_frame(sock));
      const WireFrame& retry = seen.back();
      if (!payload_crc_ok(retry.header, retry.payload())) {
        sock.write_all(response_frame(retry, Status::kMalformed, {}));
        continue;
      }
      std::vector<u8> ok;
      if (op == Opcode::kCompress) {
        ok = response_frame(retry, Status::kOk, container);
      } else {
        append_decompress_response_frame(ok, retry.header.request_id, values,
                                         echo_meta(retry.header));
      }
      sock.write_all(ok);
    }
  });

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_us = 100;
  policy.backoff_cap_us = 1000;
  CereszClient client(policy);
  client.connect("127.0.0.1", raw.port());
  EXPECT_EQ(client.compress(data, core::ErrorBound::absolute(1e-2)),
            container);
  EXPECT_EQ(client.decompress(container), values);
  ASSERT_EQ(raw.join(), "");
  EXPECT_EQ(client.stats().busy, 2u);
  EXPECT_EQ(client.stats().retries, 2u);

  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t i = 0; i < seen.size(); i += 2) {
    const WireFrame& first = seen[i];
    const WireFrame& again = seen[i + 1];
    EXPECT_TRUE(payload_crc_ok(first.header, first.payload()));
    EXPECT_TRUE(payload_crc_ok(again.header, again.payload()));
    // Same request, same trace; only the attempt's span id differs.
    EXPECT_EQ(again.header.request_id, first.header.request_id);
    EXPECT_EQ(again.header.trace.trace_id, first.header.trace.trace_id);
    EXPECT_NE(again.header.trace.parent_span_id,
              first.header.trace.parent_span_id);
    const std::size_t span_at = kFrameHeaderBytesV4 - sizeof(u64);
    ASSERT_EQ(again.bytes.size(), first.bytes.size());
    EXPECT_TRUE(std::equal(first.bytes.begin(), first.bytes.begin() + span_at,
                           again.bytes.begin()));
    EXPECT_TRUE(std::equal(first.bytes.begin() + kFrameHeaderBytesV4,
                           first.bytes.end(),
                           again.bytes.begin() + kFrameHeaderBytesV4));
  }
}

TEST(ClientWire, HostileDecompressResponseIsTypedAndAllocatesNothing) {
  // OK DECOMPRESS answers whose payload lies about itself. The first
  // count wraps `8 + 4 * count` around to the real 12-byte size; a
  // client that sized its buffer from the count would throw
  // std::length_error (not a ceresz::Error) or exhaust memory.
  const auto payload_with = [](u64 count, std::size_t value_bytes) {
    std::vector<u8> p(sizeof(u64) + value_bytes, 0);
    const auto count_bytes = le_bytes(count);
    std::copy(count_bytes.begin(), count_bytes.end(), p.begin());
    return p;
  };
  const std::vector<std::vector<u8>> payloads = {
      payload_with((u64{1} << 62) + 1, 4),  // wraps to 12 bytes
      payload_with(u64{1} << 40, 4),
      payload_with(1000, 4),
      payload_with(2, 4),
      payload_with(1, 6),                    // not whole f32s
      std::vector<u8>{1, 2, 3},              // too short for the count
  };
  RawServer raw(static_cast<u32>(payloads.size() + 1),
                [&, next = std::size_t{0}](const Socket& sock) mutable {
                  const WireFrame req = read_wire_frame(sock);
                  if (next < payloads.size()) {
                    sock.write_all(
                        response_frame(req, Status::kOk, payloads[next++]));
                    return;
                  }
                  // Finally a well-formed count with a wrong CRC.
                  std::vector<u8> out;
                  const std::vector<f32> v = {1.0f};
                  append_decompress_response_frame(
                      out, req.header.request_id, v, echo_meta(req.header));
                  out.back() ^= 0x01;
                  sock.write_all(out);
                });
  CereszClient client;
  client.connect("127.0.0.1", raw.port());
  const std::vector<u8> stream = {1, 2, 3};
  for (std::size_t i = 0; i <= payloads.size(); ++i) {
    EXPECT_THROW(client.decompress(stream), CorruptResponse) << "case " << i;
    EXPECT_FALSE(client.connected()) << "case " << i;
  }
  EXPECT_EQ(client.stats().corrupt_responses, payloads.size() + 1);
  EXPECT_EQ(raw.join(), "");
}

}  // namespace
}  // namespace ceresz::net
