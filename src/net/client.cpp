#include "net/client.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>

#include "common/checksum.h"
#include "common/timer.h"

namespace ceresz::net {

namespace {

void bump(obs::MetricsRegistry* reg, const char* name) {
  if (reg != nullptr) reg->counter(name).add();
}

}  // namespace

void declare_client_metrics(obs::MetricsRegistry& reg) {
  reg.counter(kClientMetricRequests);
  reg.counter(kClientMetricAttempts);
  reg.counter(kClientMetricRetries);
  reg.counter(kClientMetricReconnects);
  reg.counter(kClientMetricTimeouts);
  reg.counter(kClientMetricBusy);
  reg.counter(kClientMetricDraining);
  reg.counter(kClientMetricCorruptResponses);
  reg.counter(kClientMetricBudgetExhausted);
}

CereszClient::CereszClient(RetryPolicy policy, obs::MetricsRegistry* reg,
                           obs::Tracer* tracer)
    : policy_(policy), reg_(reg), tracer_(tracer),
      jitter_(policy.jitter_seed) {
  if (reg_ != nullptr) declare_client_metrics(*reg_);
}

void CereszClient::set_protocol_version(u8 version) {
  CERESZ_CHECK(version == kProtocolVersion ||
                   version == kProtocolVersionV3,
               "CereszClient: unsupported protocol version");
  wire_version_ = version;
}

void CereszClient::connect(const std::string& host, u16 port) {
  host_ = host;
  port_ = port;
  // A fail-fast client (no retries) connects eagerly so the caller
  // gets the error here. A retrying client defers establishment to the
  // request loop: a connect-time fault (reset, unreachable peer) is
  // then retried exactly like any other transport failure, instead of
  // surfacing from connect() where no retry machinery exists.
  if (policy_.max_attempts <= 1) establish_connection();
}

void CereszClient::establish_connection() {
  CERESZ_CHECK(!host_.empty(),
               "CereszClient: connect() must be called before requests");
  // Count the reconnect before dialing: a re-establishment ATTEMPT is
  // the observable event, whether or not the peer answers.
  if (ever_connected_) {
    ++stats_.reconnects;
    bump(reg_, kClientMetricReconnects);
  }
  ever_connected_ = true;
  sock_ = connect_to(host_, port_, policy_.connect_timeout_ms);
  sock_.set_io_timeout(policy_.attempt_timeout_ms);
}

void CereszClient::backoff_sleep(u32 retry_index, u64 overall_deadline_ns) {
  // Full jitter: uniform(0, min(cap, base << (k-1))). Shift clamped so
  // huge attempt counts cannot overflow the exponent.
  const u32 shift = std::min(retry_index - 1, u32{20});
  u64 ceiling = policy_.backoff_us << shift;
  ceiling = std::min(ceiling, policy_.backoff_cap_us);
  u64 sleep_us = ceiling == 0 ? 0 : jitter_.next_below(ceiling + 1);
  if (overall_deadline_ns != 0) {
    const u64 now = now_ns();
    if (now >= overall_deadline_ns) return;
    sleep_us = std::min(sleep_us, (overall_deadline_ns - now) / 1'000);
  }
  if (sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  }
}

void CereszClient::begin_request() {
  frame_.clear();
  begin_frame(frame_, wire_version_);
}

std::vector<u8> CereszClient::attempt_once(Opcode op, u64 id, u32 payload_crc,
                                           TraceTag trace,
                                           std::vector<f32>* values) {
  CERESZ_CHECK(sock_.valid(), "CereszClient: not connected");
  end_frame(frame_, 0, op, Status::kOk, id, payload_crc,
            FrameMeta(tag_, trace, wire_version_));
  {
    obs::SpanGuard write_span(tracer_, "client.write", "client");
    sock_.write_all(frame_);
  }

  // The server echoes the request's wire version, but read defensively:
  // pull the 36-byte common prefix, then the v4 trace tail if the
  // version byte says so.
  std::array<u8, kFrameHeaderBytesV4> hdr_bytes;
  const std::span<u8> prefix(hdr_bytes.data(), kFrameHeaderBytes);
  {
    obs::SpanGuard wait_span(tracer_, "client.wait", "client");
    sock_.read_exact(prefix);
  }
  std::size_t hdr_len = frame_header_bytes(hdr_bytes[4]);
  if (hdr_len > kFrameHeaderBytes) {
    sock_.read_exact(
        std::span<u8>(hdr_bytes.data() + kFrameHeaderBytes,
                      hdr_len - kFrameHeaderBytes));
  }
  // The client accepts responses up to the protocol-wide bound — the
  // server's configured limit may be tighter, but a response cannot
  // exceed what the server was willing to build.
  const FrameHeader header = parse_frame_header(
      std::span<const u8>(hdr_bytes.data(), hdr_len), kDefaultMaxPayload);
  if (values != nullptr && header.status == Status::kOk &&
      header.opcode == Opcode::kDecompress) {
    CERESZ_CHECK(header.request_id == id,
                 "CereszClient: response id does not match the request");
    obs::SpanGuard read_span(tracer_, "client.read", "client");
    read_values(header, *values);
    return {};
  }
  std::vector<u8> response(static_cast<std::size_t>(header.payload_bytes));
  u32 crc = 0;
  {
    obs::SpanGuard read_span(tracer_, "client.read", "client");
    crc = sock_.read_exact_crc32c(response);
  }

  if (crc != header.payload_crc) {
    // The framing survived but the bytes did not: nothing else read
    // from this connection deserves trust, so hang it up before the
    // caller sees the typed verdict.
    sock_.close();
    throw CorruptResponse(
        "CereszClient: response payload failed its CRC check "
        "(in-flight corruption)");
  }
  if (header.status != Status::kOk) {
    // Error frames carry a UTF-8 message; the connection stays usable.
    throw ServiceError(header.status,
                       std::string(response.begin(), response.end()));
  }
  CERESZ_CHECK(header.request_id == id,
               "CereszClient: response id does not match the request");
  CERESZ_CHECK(header.opcode == op,
               "CereszClient: response opcode does not match the request");
  return response;
}

void CereszClient::read_values(const FrameHeader& header,
                               std::vector<f32>& values) {
  const auto corrupt = [this](const std::string& what) {
    sock_.close();  // unread or untrusted bytes: this connection is done
    throw CorruptResponse(what);
  };
  std::array<u8, kDecompressCountBytes> head{};
  const std::span<u8> count_bytes(
      head.data(), std::min<u64>(head.size(), header.payload_bytes));
  const u32 count_crc = sock_.read_exact_crc32c(count_bytes);
  u64 count = 0;
  try {
    count = decompress_response_count(count_bytes, header.payload_bytes);
  } catch (const Error& e) {
    corrupt(e.what());
  }
  values.resize(static_cast<std::size_t>(count));
  const std::span<u8> bytes(reinterpret_cast<u8*>(values.data()),
                            values.size() * sizeof(f32));
  if (sock_.read_exact_crc32c(bytes, count_crc) != header.payload_crc) {
    corrupt(
        "CereszClient: response payload failed its CRC check (in-flight "
        "corruption)");
  }
}

std::vector<u8> CereszClient::roundtrip(Opcode op, std::vector<f32>* values) {
  const u32 payload_crc = crc32c(
      std::span<const u8>(frame_).subspan(frame_header_bytes(wire_version_)));
  // ONE id for the logical request, reused by every attempt: a retry
  // of a request the server already executed is a visible duplicate
  // (same id, bumped server counters), never an invisible one.
  const u64 id = next_request_id_++;
  ++stats_.requests;
  bump(reg_, kClientMetricRequests);
  const u64 overall_deadline =
      policy_.overall_deadline_ms == 0
          ? 0
          : now_ns() + static_cast<u64>(policy_.overall_deadline_ms) *
                           1'000'000;

  // One trace per logical request, one child span per wire attempt.
  // Ids are generated even without a tracer: the wire context still
  // reaches the server, so server-side attribution works regardless.
  const u64 trace_id = obs::next_trace_id();
  const u64 request_span = obs::next_span_id();
  last_trace_id_ = trace_id;
  const u64 request_start = tracer_ ? tracer_->now_rel_ns() : 0;

  // Record the "client.request" root when the loop exits, success or
  // throw, covering every attempt and backoff underneath it.
  struct RequestSpan {
    obs::Tracer* t;
    obs::TraceEvent ev;
    ~RequestSpan() {
      if (t == nullptr) return;
      ev.dur_ns = t->now_rel_ns() - ev.ts_ns;
      t->record(ev);
    }
  } request_guard{tracer_, {}};
  if (tracer_ != nullptr) {
    request_guard.ev.name = "client.request";
    request_guard.ev.cat = "client";
    request_guard.ev.ts_ns = request_start;
    request_guard.ev.trace_id = trace_id;
    request_guard.ev.span_id = request_span;
    request_guard.ev.arg1_name = "request_id";
    request_guard.ev.arg1 = static_cast<i64>(id);
    request_guard.ev.arg2_name = "tenant_id";
    request_guard.ev.arg2 = static_cast<i64>(tag_.tenant_id);
  }

  std::exception_ptr last;
  for (u32 attempt = 1;; ++attempt) {
    // A fresh span id per attempt is the stitcher's join key: the wire
    // parent_span_id below makes the server's span tree for THIS
    // attempt a child of THIS attempt span, so a retried request shows
    // up as sibling attempt spans each with their own server tree.
    const u64 attempt_span = obs::next_span_id();
    const obs::TraceContextScope scope({trace_id, attempt_span});
    struct AttemptSpan {
      obs::Tracer* t;
      obs::TraceEvent ev;
      ~AttemptSpan() {
        if (t == nullptr) return;
        ev.dur_ns = t->now_rel_ns() - ev.ts_ns;
        t->record(ev);
      }
    } attempt_guard{tracer_, {}};
    if (tracer_ != nullptr) {
      attempt_guard.ev.name = "client.attempt";
      attempt_guard.ev.cat = "client";
      attempt_guard.ev.ts_ns = tracer_->now_rel_ns();
      attempt_guard.ev.trace_id = trace_id;
      attempt_guard.ev.span_id = attempt_span;
      attempt_guard.ev.parent_span_id = request_span;
      attempt_guard.ev.arg1_name = "request_id";
      attempt_guard.ev.arg1 = static_cast<i64>(id);
      attempt_guard.ev.arg2_name = "attempt";
      attempt_guard.ev.arg2 = static_cast<i64>(attempt);
    }
    try {
      // Establishment is part of the attempt: a connect that fails is
      // an attempt that failed, and is counted and retried as one.
      ++stats_.attempts;
      bump(reg_, kClientMetricAttempts);
      if (!sock_.valid()) {
        obs::SpanGuard connect_span(tracer_, "client.connect", "client");
        establish_connection();
      }
      return attempt_once(op, id, payload_crc,
                          TraceTag{trace_id, attempt_span}, values);
    } catch (const CorruptResponse&) {
      ++stats_.corrupt_responses;
      bump(reg_, kClientMetricCorruptResponses);
      throw;  // terminal: see the class comment
    } catch (const ServiceError& e) {
      if (e.status() == Status::kBusy) {
        ++stats_.busy;
        bump(reg_, kClientMetricBusy);
        // The connection is fine; the server shed us. Retry on it.
      } else if (e.status() == Status::kDraining) {
        ++stats_.draining;
        bump(reg_, kClientMetricDraining);
        sock_.close();  // this server is going away; reconnect fresh
      } else {
        throw;  // terminal: the request itself is the problem
      }
      last = std::current_exception();
    } catch (const NetTimeout&) {
      ++stats_.timeouts;
      bump(reg_, kClientMetricTimeouts);
      sock_.close();
      last = std::current_exception();
    } catch (const Error&) {
      // Transport failure: reset, EOF, truncated or garbled frame.
      sock_.close();
      last = std::current_exception();
    }

    if (attempt >= policy_.max_attempts) std::rethrow_exception(last);
    if (stats_.retries >= policy_.retry_budget) {
      ++stats_.budget_exhausted;
      bump(reg_, kClientMetricBudgetExhausted);
      std::rethrow_exception(last);
    }
    if (overall_deadline != 0 && now_ns() >= overall_deadline) {
      std::rethrow_exception(last);
    }
    ++stats_.retries;
    bump(reg_, kClientMetricRetries);
    {
      obs::SpanGuard backoff_span(tracer_, "client.backoff", "client",
                                  "attempt", static_cast<i64>(attempt));
      backoff_sleep(attempt, overall_deadline);
    }
  }
}

f64 CereszClient::ping() {
  const u64 start = now_ns();
  begin_request();
  const std::vector<u8> payload = roundtrip(Opcode::kPing);
  server_state_ = payload.empty()
                      ? "SERVING"
                      : std::string(payload.begin(), payload.end());
  return static_cast<f64>(now_ns() - start) * 1e-9;
}

std::vector<u8> CereszClient::compress(std::span<const f32> data,
                                       core::ErrorBound bound,
                                       u32 deadline_ms) {
  CompressRequest req;
  req.bound = bound;
  req.deadline_ms = deadline_ms;
  req.data = data;
  begin_request();
  frame_.reserve(frame_.size() + 24 + data.size() * sizeof(f32));
  append_compress_request(frame_, req);
  return roundtrip(Opcode::kCompress);
}

std::vector<f32> CereszClient::decompress(std::span<const u8> stream,
                                          u32 deadline_ms) {
  DecompressRequest req;
  req.deadline_ms = deadline_ms;
  req.stream = stream;
  begin_request();
  frame_.reserve(frame_.size() + 16 + stream.size());
  append_decompress_request(frame_, req);
  std::vector<f32> values;
  roundtrip(Opcode::kDecompress, &values);
  return values;
}

std::string CereszClient::stats_json() {
  begin_request();
  const std::vector<u8> response = roundtrip(Opcode::kStats);
  return std::string(response.begin(), response.end());
}

}  // namespace ceresz::net
