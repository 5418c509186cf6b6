// Observability suite: structured logging (obs::Logger), the ambient
// trace context, the TelemetryEndpoint live plane, the CSNP v4
// trace wire (fuzz + v3-client-vs-v4-server compat), the cross-process
// trace stitcher, and perfgate record provenance.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/analysis/json.h"
#include "obs/analysis/stitch.h"
#include "obs/analysis/trace_analysis.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "test_util.h"

namespace ceresz {
namespace {

using namespace obs;
using namespace obs::analysis;

// --- structured logging -----------------------------------------------------

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(Logger, EmitsOneJsonObjectPerLineWithTypedFields) {
  std::ostringstream sink;
  LoggerOptions opt;
  opt.min_level = LogLevel::kInfo;
  opt.max_events_per_sec = 0;  // no rate limit
  opt.sink = &sink;
  Logger log(opt);

  log.info("server.started", {{"port", u32{9000}}, {"mode", "drain"}});
  log.warn("conn.reset", {{"request_id", u64{42}}, {"rate", 0.5}});
  log.debug("noise", {});  // below min_level: dropped silently

  const auto lines = lines_of(sink.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"event\":\"server.started\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"port\":9000"), std::string::npos);
  EXPECT_NE(lines[0].find("\"mode\":\"drain\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"request_id\":42"), std::string::npos);
  // Every line is a complete JSON object.
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  EXPECT_EQ(log.emitted(), 2u);
}

TEST(Logger, RateLimitShedsButErrorsAlwaysPass) {
  std::ostringstream sink;
  LoggerOptions opt;
  opt.max_events_per_sec = 5;  // 5-token bucket, refilled per second
  opt.sink = &sink;
  Logger log(opt);

  for (int i = 0; i < 50; ++i) log.info("flood", {{"i", i}});
  EXPECT_LE(log.emitted(), 6u);  // burst-bounded (tiny refill slack)
  EXPECT_GE(log.suppressed(), 40u);

  // Errors bypass the limiter even with the bucket empty — and the
  // first record through also flushes the "log.suppressed" accounting
  // line, so the shed records are visible in the log itself.
  const u64 before = log.emitted();
  log.error("crash", {{"what", "boom"}});
  EXPECT_EQ(log.emitted(), before + 2);
  EXPECT_NE(sink.str().find("\"event\":\"crash\""), std::string::npos);
  EXPECT_NE(sink.str().find("\"event\":\"log.suppressed\""),
            std::string::npos);
}

TEST(Logger, ConcurrentWritersNeverInterleaveWithinALine) {
  std::ostringstream sink;
  LoggerOptions opt;
  opt.max_events_per_sec = 0;
  opt.sink = &sink;
  Logger log(opt);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.info("tick", {{"writer", t}, {"seq", i}});
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto lines = lines_of(sink.str());
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto& l : lines) {
    // A torn line would break the one-object-per-line shape.
    ASSERT_EQ(l.front(), '{');
    ASSERT_EQ(l.back(), '}');
    ASSERT_NE(l.find("\"event\":\"tick\""), std::string::npos);
  }
  EXPECT_EQ(log.emitted(), static_cast<u64>(kThreads * kPerThread));
  EXPECT_EQ(log.suppressed(), 0u);
}

TEST(Logger, ParseLogLevel) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(parse_log_level("debug", level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("error", level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(parse_log_level("loud", level));
  EXPECT_EQ(level, LogLevel::kError);  // untouched on failure
}

// --- ambient trace context --------------------------------------------------

TEST(TraceContext, AmbientContextFillsUntaggedEvents) {
  Tracer tracer;
  {
    const TraceContextScope scope(TraceContext{0xabc123, 77});
    TraceEvent ev;
    ev.name = "work";
    ev.dur_ns = 10;
    tracer.record(ev);  // trace_id == 0: inherits the ambient pair

    TraceEvent tagged;
    tagged.name = "explicit";
    tagged.trace_id = 0x999;
    tagged.parent_span_id = 5;
    tracer.record(tagged);  // already tagged: left alone
  }
  TraceEvent outside;
  outside.name = "after";
  tracer.record(outside);  // no ambient context: stays zero

  const auto events = tracer.snapshot_events();
  ASSERT_EQ(events.size(), 3u);
  const auto find = [&](const char* name) {
    return *std::find_if(events.begin(), events.end(), [&](const auto& e) {
      return std::string(e.name) == name;
    });
  };
  EXPECT_EQ(find("work").trace_id, 0xabc123u);
  EXPECT_EQ(find("work").parent_span_id, 77u);
  EXPECT_EQ(find("explicit").trace_id, 0x999u);
  EXPECT_EQ(find("explicit").parent_span_id, 5u);
  EXPECT_EQ(find("after").trace_id, 0u);
}

TEST(TraceContext, ScopesNestAndRestore) {
  EXPECT_FALSE(current_trace_context().active());
  {
    const TraceContextScope outer(TraceContext{1, 10});
    EXPECT_EQ(current_trace_context().trace_id, 1u);
    {
      const TraceContextScope inner(TraceContext{2, 20});
      EXPECT_EQ(current_trace_context().trace_id, 2u);
      EXPECT_EQ(current_trace_context().span_id, 20u);
    }
    EXPECT_EQ(current_trace_context().trace_id, 1u);
    EXPECT_EQ(current_trace_context().span_id, 10u);
  }
  EXPECT_FALSE(current_trace_context().active());
}

TEST(TraceContext, IdsAreUniqueNonzeroAnd48Bit) {
  std::set<u64> trace_ids;
  std::set<u64> span_ids;
  for (int i = 0; i < 1000; ++i) {
    const u64 t = next_trace_id();
    const u64 s = next_span_id();
    EXPECT_NE(t, 0u);
    EXPECT_NE(s, 0u);
    EXPECT_LT(t, u64{1} << 48);  // survives f64-backed JSON tooling
    trace_ids.insert(t);
    span_ids.insert(s);
  }
  EXPECT_EQ(trace_ids.size(), 1000u);
  EXPECT_EQ(span_ids.size(), 1000u);
}

// --- the telemetry endpoint ------------------------------------------------

/// Minimal loopback HTTP GET, enough for the telemetry endpoint.
std::string http_get(u16 port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Record a server.request root the way net/server.cpp does: status as
/// its category, request and tenant id as its args.
void record_request_root(Tracer& tracer, u64 trace_id, i64 request_id) {
  TraceEvent ev;
  ev.name = "server.request";
  ev.cat = "OK";
  ev.arg1_name = "request_id";
  ev.arg1 = request_id;
  ev.arg2_name = "tenant_id";
  ev.trace_id = trace_id;
  ev.span_id = next_span_id();
  tracer.record(ev);
}

/// The body of an HTTP response.
std::string body_of(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

/// The server.request roots among the tracer's events.
std::vector<TraceEvent> request_roots(const Tracer& tracer) {
  std::vector<TraceEvent> roots;
  for (const TraceEvent& ev : tracer.snapshot_events()) {
    if (std::string_view(ev.name) == "server.request") roots.push_back(ev);
  }
  return roots;
}

TEST(Telemetry, ServesMetricsHealthzAndTracez) {
  MetricsRegistry reg;
  reg.counter("ceresz_test_requests_total").add(3);
  Tracer tracer;
  record_request_root(tracer, 0xfeed, 9);

  TelemetryOptions opt;
  opt.port = 0;
  opt.metrics = &reg;
  opt.tracer = &tracer;
  TelemetryEndpoint endpoint(opt);
  endpoint.start();
  ASSERT_NE(endpoint.port(), 0);

  const std::string metrics = http_get(endpoint.port(), "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("ceresz_test_requests_total 3"),
            std::string::npos);

  EXPECT_NE(http_get(endpoint.port(), "/healthz").find("ok"),
            std::string::npos);
  endpoint.set_draining(true);
  const std::string drained = http_get(endpoint.port(), "/healthz");
  EXPECT_NE(drained.find("503"), std::string::npos);
  EXPECT_NE(drained.find("draining"), std::string::npos);
  endpoint.set_draining(false);

  const std::string tracez = http_get(endpoint.port(), "/tracez");
  EXPECT_NE(tracez.find("\"request_id\":9"), std::string::npos);

  EXPECT_NE(http_get(endpoint.port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_GE(endpoint.requests_served(), 5u);
  endpoint.stop();
}

TEST(Telemetry, TracezAnswers404WithoutATracer) {
  MetricsRegistry reg;
  TelemetryOptions opt;
  opt.metrics = &reg;
  TelemetryEndpoint endpoint(opt);
  endpoint.start();
  EXPECT_NE(http_get(endpoint.port(), "/tracez").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(endpoint.port(), "/metrics").find("200"),
            std::string::npos);
}

TEST(Telemetry, MetricsScrapeExportsTraceDropsLive) {
  MetricsRegistry reg;
  declare_trace_metrics(reg);
  Tracer tracer(/*ring_capacity=*/8);
  TelemetryOptions opt;
  opt.metrics = &reg;
  opt.tracer = &tracer;
  TelemetryEndpoint endpoint(opt);
  endpoint.start();

  const std::string metric = std::string(kMetricTraceDropped) + " ";
  EXPECT_NE(http_get(endpoint.port(), "/metrics").find(metric + "0"),
            std::string::npos);
  for (int i = 0; i < 100; ++i) tracer.instant("tick", "test");
  EXPECT_NE(http_get(endpoint.port(), "/metrics").find(metric + "92"),
            std::string::npos);
  // A second scrape with no new drops adds nothing.
  EXPECT_NE(http_get(endpoint.port(), "/metrics").find(metric + "92"),
            std::string::npos);
  for (int i = 0; i < 10; ++i) tracer.instant("tick", "test");
  EXPECT_NE(http_get(endpoint.port(), "/metrics").find(metric + "102"),
            std::string::npos);
}

TEST(Telemetry, TracezWhileRequestsAreInFlight) {
  Tracer tracer;
  net::ServerOptions sopt;
  sopt.port = 0;
  sopt.workers = 2;
  sopt.engine.threads = 2;
  sopt.engine.chunk_elems = 2048;
  sopt.tracer = &tracer;
  net::ServiceServer server(std::move(sopt));
  server.start();
  TelemetryOptions topt;
  topt.metrics = &server.metrics();
  topt.tracer = &tracer;
  TelemetryEndpoint endpoint(topt);
  endpoint.start();

  const auto data = test::smooth_signal(8192);
  const auto bound = core::ErrorBound::relative(1e-3);
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      net::CereszClient client;
      client.connect("127.0.0.1", server.port());
      for (int i = 0; i < 20; ++i) {
        const auto stream = client.compress(data, bound);
        EXPECT_EQ(client.decompress(stream).size(), data.size());
      }
    });
  }
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string response = http_get(endpoint.port(), "/tracez");
      EXPECT_NE(response.find("200"), std::string::npos);
      EXPECT_NO_THROW(parse_json(body_of(response)));
    }
  });
  for (auto& t : clients) t.join();
  done = true;
  scraper.join();
  server.stop();  // joins the workers: every root and write span is in

  // Each root shows its trace id, status and phases, and its engine
  // span names the op.
  const JsonValue tracez =
      parse_json(body_of(http_get(endpoint.port(), "/tracez")));
  const std::vector<JsonValue>& requests = tracez.at("requests").array;
  ASSERT_EQ(requests.size(), 80u);
  std::set<std::string> ops;
  for (const JsonValue& r : requests) {
    EXPECT_NE(r.number_or("trace_id", 0), 0.0);
    EXPECT_EQ(r.string_or("status", ""), "OK");
    std::set<std::string> names;
    for (const JsonValue& span : r.at("spans").array) {
      names.insert(span.string_or("name", ""));
    }
    for (const char* phase : {"server.queue_wait", "server.decode",
                              "server.engine", "server.encode",
                              "server.write"}) {
      EXPECT_TRUE(names.count(phase)) << phase;
    }
    for (const char* op : {"engine.compress", "engine.decompress"}) {
      if (names.count(op)) ops.insert(op);
    }
  }
  EXPECT_EQ(ops.size(), 2u);
  endpoint.stop();
}

// --- CSNP v4 wire -----------------------------------------------------------

TEST(ProtocolV4, HeaderFuzzNeverCrashesOrMisparses) {
  net::FrameHeader h;
  h.opcode = net::Opcode::kCompress;
  h.request_id = 7;
  h.trace = net::TraceTag{0x1234, 0x5678};
  std::vector<u8> good;
  net::append_frame_header(good, h);
  ASSERT_EQ(good.size(), net::kFrameHeaderBytesV4);

  // Every truncation of a valid v4 header is rejected, not read OOB.
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_THROW(net::parse_frame_header(
                     std::span<const u8>(good.data(), n),
                     net::kDefaultMaxPayload),
                 Error)
        << "length " << n;
  }
  // Nonzero reserved bytes are rejected in v4 exactly as in v3.
  for (int i = 33; i < 36; ++i) {
    auto bad = good;
    bad[static_cast<std::size_t>(i)] = 1;
    EXPECT_THROW(net::parse_frame_header(bad, net::kDefaultMaxPayload),
                 Error);
  }
  // Random garbage either parses to a fully-validated header or throws;
  // it never crashes.
  Rng rng(20260807);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<u8> fuzz(net::kFrameHeaderBytesV4);
    for (auto& b : fuzz) b = static_cast<u8>(rng.next_u64());
    if (iter % 4 == 0) {  // bias toward near-valid frames
      fuzz = good;
      fuzz[rng.next_u64() % fuzz.size()] ^=
          static_cast<u8>(1u << (rng.next_u64() % 8));
    }
    try {
      const net::FrameHeader parsed =
          net::parse_frame_header(fuzz, net::kDefaultMaxPayload);
      EXPECT_TRUE(parsed.version == net::kProtocolVersion ||
                  parsed.version == net::kProtocolVersionV3);
      EXPECT_LE(parsed.payload_bytes, net::kDefaultMaxPayload);
    } catch (const Error&) {
      // Rejection is the expected outcome for most mutations.
    }
  }
}

TEST(ProtocolV4, ResponsesEchoTheRequestVersionAndTrace) {
  net::FrameHeader v3;
  v3.version = net::kProtocolVersionV3;
  v3.opcode = net::Opcode::kPing;
  v3.request_id = 11;
  const net::FrameMeta m3 = net::echo_meta(v3);
  EXPECT_EQ(m3.version, net::kProtocolVersionV3);
  std::vector<u8> frame;
  net::append_frame(frame, net::Opcode::kPing, net::Status::kOk, 11, {},
                    m3);
  // A v3 client must get a byte-exact 36-byte v3 header back.
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytes);
  EXPECT_EQ(frame[4], net::kProtocolVersionV3);

  net::FrameHeader v4;
  v4.opcode = net::Opcode::kPing;
  v4.request_id = 12;
  v4.trace = net::TraceTag{0xaa55, 0x77};
  const net::FrameMeta m4 = net::echo_meta(v4);
  frame.clear();
  net::append_frame(frame, net::Opcode::kPing, net::Status::kOk, 12, {},
                    m4);
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytesV4);
  const net::FrameHeader back =
      net::parse_frame_header(frame, net::kDefaultMaxPayload);
  EXPECT_EQ(back.trace.trace_id, 0xaa55u);
  EXPECT_EQ(back.trace.parent_span_id, 0x77u);
}

TEST(ProtocolV4, V3ClientAgainstV4ServerRoundTripsByteIdentically) {
  net::ServerOptions opt;
  opt.port = 0;
  opt.workers = 2;
  opt.engine.threads = 2;
  opt.engine.chunk_elems = 2048;
  Tracer tracer;
  opt.tracer = &tracer;
  net::ServiceServer server(std::move(opt));
  server.start();

  const auto data = test::smooth_signal(4000);
  const auto bound = core::ErrorBound::relative(1e-3);
  const engine::ParallelEngine local{server.options().engine};
  const auto reference = local.compress(data, bound);

  net::CereszClient v4_client;
  v4_client.connect("127.0.0.1", server.port());
  const auto via_v4 = v4_client.compress(data, bound);

  net::CereszClient v3_client;
  v3_client.set_protocol_version(net::kProtocolVersionV3);
  v3_client.connect("127.0.0.1", server.port());
  const auto via_v3 = v3_client.compress(data, bound);
  const auto values = v3_client.decompress(via_v3);

  // The v3 path is served byte-identically to the v4 path and the local
  // engine; the local decompress of the reference matches too.
  EXPECT_EQ(via_v3, reference.stream);
  EXPECT_EQ(via_v4, reference.stream);
  EXPECT_EQ(values.size(), data.size());

  // The v3 frames carried no trace context, but the server synthesized
  // a trace id: every completed request is attributable regardless of
  // the client's wire version. (Roots are recorded after the response
  // write — stop() joins the workers so all three are visible.)
  server.stop();
  const std::vector<TraceEvent> roots = request_roots(tracer);
  ASSERT_GE(roots.size(), 3u);
  for (const TraceEvent& root : roots) {
    EXPECT_NE(root.trace_id, 0u) << root.arg1;
  }
}

// --- the stitcher -----------------------------------------------------------

/// Hand-built golden: two client requests, the second with a RETRIED
/// attempt whose first try also executed server-side (truncated
/// response), so two server trees join to the same logical request 1:1.
TEST(Stitch, GoldenJoinIncludingDuplicateRetriedAttempts) {
  const auto span = [](const char* name, u32 tid, u64 ts, u64 dur,
                       std::map<std::string, i64> args) {
    Span s;
    s.name = name;
    s.tid = tid;
    s.ts_ns = ts;
    s.dur_ns = dur;
    s.args = std::move(args);
    return s;
  };
  constexpr i64 kTrace1 = 0x111, kTrace2 = 0x222;

  TraceData client;
  // Request 1: one attempt (span 101 under root 100).
  client.spans.push_back(span("client.request", 1, 1000, 9000,
                              {{"trace_id", kTrace1},
                               {"span_id", 100},
                               {"request_id", 1}}));
  client.spans.push_back(span("client.attempt", 1, 1500, 8000,
                              {{"trace_id", kTrace1},
                               {"span_id", 101},
                               {"parent_span_id", 100},
                               {"attempt", 1}}));
  // Request 2: attempt 201 dies (truncated response), attempt 202 wins.
  client.spans.push_back(span("client.request", 1, 20000, 30000,
                              {{"trace_id", kTrace2},
                               {"span_id", 200},
                               {"request_id", 2}}));
  client.spans.push_back(span("client.attempt", 1, 21000, 10000,
                              {{"trace_id", kTrace2},
                               {"span_id", 201},
                               {"parent_span_id", 200},
                               {"attempt", 1}}));
  client.spans.push_back(span("client.attempt", 1, 38000, 12000,
                              {{"trace_id", kTrace2},
                               {"span_id", 202},
                               {"parent_span_id", 200},
                               {"attempt", 2}}));

  TraceData server;  // its own clock: offsets don't matter for the join
  const auto server_tree = [&](i64 trace, i64 wire_parent, i64 root,
                               u64 ts, u64 dur) {
    server.spans.push_back(span("server.request", 2, ts, dur,
                                {{"trace_id", trace},
                                 {"span_id", root},
                                 {"parent_span_id", wire_parent},
                                 {"request_id", trace}}));
    server.spans.push_back(span("server.queue_wait", 2, ts, 500,
                                {{"trace_id", trace},
                                 {"parent_span_id", root}}));
    server.spans.push_back(span("server.engine", 2, ts + 600, dur - 1000,
                                {{"trace_id", trace},
                                 {"parent_span_id", root}}));
  };
  server_tree(kTrace1, 101, 1, 500, 6000);
  server_tree(kTrace2, 201, 2, 9000, 8000);   // executed, answer lost
  server_tree(kTrace2, 202, 3, 25000, 9000);  // the retry, also executed

  const StitchReport report = stitch_traces(client, server);
  ASSERT_EQ(report.requests.size(), 2u);
  EXPECT_EQ(report.totals.attempts, 3u);
  EXPECT_EQ(report.totals.matched_attempts, 3u);  // duplicates join 1:1
  EXPECT_EQ(report.totals.server_roots, 3u);
  EXPECT_DOUBLE_EQ(report.totals.match_rate, 1.0);

  const StitchedRequest& r1 = report.requests[0];
  EXPECT_EQ(r1.trace_id, static_cast<u64>(kTrace1));
  ASSERT_EQ(r1.attempts.size(), 1u);
  EXPECT_TRUE(r1.attempts[0].matched);
  EXPECT_EQ(r1.attempts[0].server_dur_ns, 6000u);
  EXPECT_EQ(r1.attempts[0].network_ns, 2000u);  // 8000 - 6000
  EXPECT_EQ(r1.attempts[0].queue_wait_ns, 500u);
  EXPECT_EQ(r1.attempts[0].engine_ns, 5000u);
  EXPECT_EQ(r1.retry_overhead_ns, 0u);

  const StitchedRequest& r2 = report.requests[1];
  ASSERT_EQ(r2.attempts.size(), 2u);
  EXPECT_TRUE(r2.attempts[0].matched);
  EXPECT_TRUE(r2.attempts[1].matched);
  // Each attempt joined its OWN server tree, in attempt order.
  EXPECT_EQ(r2.attempts[0].server_dur_ns, 8000u);
  EXPECT_EQ(r2.attempts[1].server_dur_ns, 9000u);
  // Retry overhead: request duration minus the final attempt.
  EXPECT_EQ(r2.retry_overhead_ns, 30000u - 12000u);

  // An unmatched attempt (server never saw it) lowers the match rate
  // but breaks nothing.
  client.spans.push_back(span("client.request", 1, 60000, 1000,
                              {{"trace_id", 0x333},
                               {"span_id", 300},
                               {"request_id", 3}}));
  client.spans.push_back(span("client.attempt", 1, 60000, 900,
                              {{"trace_id", 0x333},
                               {"span_id", 301},
                               {"parent_span_id", 300},
                               {"attempt", 1}}));
  const StitchReport partial = stitch_traces(client, server);
  EXPECT_EQ(partial.totals.attempts, 4u);
  EXPECT_EQ(partial.totals.matched_attempts, 3u);
  EXPECT_FALSE(partial.requests[2].attempts[0].matched);

  // The render and the history records digest the same totals.
  const std::string rendered = render_stitch_report(report);
  EXPECT_NE(rendered.find("match rate 1.000"), std::string::npos);
  const auto records = stitch_history_records(report);
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[0].bench, "service_trace");
  EXPECT_EQ(records[0].metric, "match_rate");
  EXPECT_DOUBLE_EQ(records[0].value, 1.0);
}

TEST(Stitch, CoverageCountsOnlyRequestTaggedRootTrees) {
  const auto span = [](const char* name, u32 tid, u64 ts, u64 dur,
                       std::map<std::string, i64> args) {
    Span s;
    s.name = name;
    s.tid = tid;
    s.ts_ns = ts;
    s.dur_ns = dur;
    s.args = std::move(args);
    return s;
  };
  TraceData server;
  // Tagged root: counts fully.
  server.spans.push_back(
      span("server.request", 1, 0, 7000, {{"trace_id", 0x1}}));
  // Untagged root with a TAGGED descendant: the tree is attributable.
  server.spans.push_back(span("task", 2, 0, 2000, {}));
  server.spans.push_back(
      span("chunk.compress", 2, 100, 1000, {{"trace_id", 0x1}}));
  // Untagged root, nothing tagged below: unattributable busy time.
  server.spans.push_back(span("task", 3, 0, 1000, {}));
  EXPECT_DOUBLE_EQ(request_span_coverage(server), 9000.0 / 10000.0);

  // An empty server trace is vacuously covered.
  EXPECT_DOUBLE_EQ(request_span_coverage(TraceData{}), 1.0);
}

TEST(Stitch, LiveRetriedRequestJoinsBothAttempts) {
  // End-to-end: a chaos proxy truncates the first response mid-frame, so
  // the request EXECUTES server-side twice; the stitcher must join each
  // wire attempt to its own server tree.
  net::ServerOptions opt;
  opt.port = 0;
  opt.workers = 2;
  opt.engine.threads = 2;
  opt.engine.chunk_elems = 1024;
  Tracer server_tracer;
  opt.tracer = &server_tracer;
  net::ServiceServer server(std::move(opt));
  server.start();

  net::NetFaultPlan plan;
  // Connection 0: let the request through, truncate the response after
  // the header starts flowing back; connection 1 (the reconnect): clean.
  plan.truncate(0, net::ChaosDir::kServerToClient, 16);
  net::ChaosProxy proxy("127.0.0.1", server.port(), std::move(plan));
  proxy.start();

  net::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_us = 100;
  policy.attempt_timeout_ms = 5'000;
  Tracer client_tracer;
  net::CereszClient client(policy, nullptr, &client_tracer);
  client.connect("127.0.0.1", proxy.port());

  const auto data = test::smooth_signal(2000);
  const auto stream = client.compress(data, core::ErrorBound::relative(1e-3));
  EXPECT_FALSE(stream.empty());
  EXPECT_GE(client.stats().retries, 1u);

  proxy.stop();
  server.stop();

  const StitchReport report = stitch_traces(from_tracer(client_tracer),
                                            from_tracer(server_tracer));
  ASSERT_EQ(report.requests.size(), 1u);
  const StitchedRequest& req = report.requests[0];
  EXPECT_EQ(req.trace_id, client.last_trace_id());
  ASSERT_GE(req.attempts.size(), 2u);
  // The truncated attempt still executed server-side: both the failed
  // and the winning attempt have their own matched server tree.
  u64 matched = 0;
  for (const auto& att : req.attempts) matched += att.matched ? 1 : 0;
  EXPECT_EQ(matched, req.attempts.size());
  EXPECT_GT(req.retry_overhead_ns, 0u);
  EXPECT_GE(report.totals.server_coverage, 0.95);
}

// --- perfgate provenance ----------------------------------------------------

TEST(Perfgate, ParserIgnoresUnknownKeysAndRoundTripsMetadata) {
  HistoryRecord rec;
  rec.bench = "service_trace";
  rec.metric = "match_rate";
  rec.value = 1.0;
  rec.unit = "ratio";
  rec.better = "higher";
  rec.noise = 0.01;
  rec.timestamp = "2026-08-07T00:00:00Z";
  rec.git_sha = "abc123";
  rec.host = "ci-runner";
  const std::string line = rec.to_jsonl();
  EXPECT_NE(line.find("\"timestamp\": \"2026-08-07T00:00:00Z\""),
            std::string::npos);
  EXPECT_NE(line.find("\"git_sha\": \"abc123\""), std::string::npos);

  const auto back = parse_history_jsonl(line);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].bench, "service_trace");
  EXPECT_EQ(back[0].timestamp, rec.timestamp);
  EXPECT_EQ(back[0].git_sha, rec.git_sha);
  EXPECT_EQ(back[0].host, rec.host);

  // Unknown keys — from a NEWER writer — must not break parsing, and
  // records without the provenance keys still parse (older history).
  const std::string future =
      "{\"bench\": \"b\", \"metric\": \"m\", \"value\": 2.5, "
      "\"unit\": \"x\", \"better\": \"lower\", \"noise\": 0.1, "
      "\"flux_capacitor\": \"1.21GW\", \"shard\": 7}\n"
      "{\"bench\": \"old\", \"metric\": \"m\", \"value\": 1.0, "
      "\"unit\": \"x\", \"better\": \"higher\", \"noise\": 0.2}";
  const auto parsed = parse_history_jsonl(future);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].bench, "b");
  EXPECT_DOUBLE_EQ(parsed[0].value, 2.5);
  EXPECT_TRUE(parsed[1].timestamp.empty());

  // Empty provenance fields are omitted from the line entirely.
  HistoryRecord bare;
  bare.bench = "b";
  bare.metric = "m";
  EXPECT_EQ(bare.to_jsonl().find("timestamp"), std::string::npos);
}

TEST(Perfgate, StampFillsWellFormedProvenance) {
  HistoryRecord rec;
  rec.bench = "b";
  rec.metric = "m";
  stamp_history_metadata(rec);
  // 2026-08-07T12:34:56Z — fixed-width ISO-8601 UTC.
  ASSERT_EQ(rec.timestamp.size(), 20u);
  EXPECT_EQ(rec.timestamp[4], '-');
  EXPECT_EQ(rec.timestamp[10], 'T');
  EXPECT_EQ(rec.timestamp.back(), 'Z');
  EXPECT_FALSE(rec.host.empty());
}

}  // namespace
}  // namespace ceresz
