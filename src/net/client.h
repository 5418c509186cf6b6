// CereszClient: blocking request/response client for the ceresz_server
// CSNP protocol (net/protocol.h). One client drives one connection;
// it is NOT thread-safe — give each client thread its own instance
// (connections are cheap; the load generator opens one per worker).
//
// Resilience: a RetryPolicy makes the client survive a flaky network.
// Each logical request keeps ONE request id across every attempt (so a
// retried request that already executed shows up server-side as a
// duplicate of the same id — observable, never silent), reconnects on
// transport failure, and backs off with capped exponential delays and
// full jitter. Retries draw from a client-lifetime retry *budget*, so
// a dying server cannot convert a fleet of clients into a retry storm.
// The default policy (max_attempts = 1) is the old fail-fast client.
//
// Error surface, and what the retry loop does with each:
//   retryable — transport ceresz::Error (connection refused, reset,
//     EOF, truncated or garbled frame; reconnects first), NetTimeout
//     (stalled peer or black hole; reconnects), ServiceError kBusy
//     (server shed load; the connection is still good) and kDraining
//     (server is going away; reconnects).
//   terminal — CorruptResponse (the response payload failed its frame
//     CRC, or a DECOMPRESS answer's element count disagrees with its
//     size: re-requesting cannot be trusted to mask a corrupting path,
//     the caller must know) and every other ServiceError status
//     (BAD_REQUEST, MALFORMED, CORRUPT_STREAM, DEADLINE_EXPIRED,
//     INTERNAL — the request itself is the problem).
// When attempts, budget, or the overall deadline run out, the LAST
// failure is rethrown unchanged.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/config.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace ceresz::net {

/// An error frame returned by the server, as an exception.
class ServiceError : public Error {
 public:
  ServiceError(Status status, const std::string& message)
      : Error(std::string(status_name(status)) + ": " + message),
        status_(status) {}

  Status status() const { return status_; }

 private:
  Status status_;
};

/// A response payload that failed its frame CRC, or a DECOMPRESS answer
/// whose element count disagrees with its size. Terminal: the bytes on
/// this path cannot be trusted, so the client refuses to guess and the
/// caller decides (new connection, different server, alarm).
class CorruptResponse : public Error {
 public:
  explicit CorruptResponse(const std::string& what)
      : Error(what, ErrorKind::kCorruptData) {}
};

/// How hard the client fights for each logical request. The defaults
/// are the legacy fail-fast client: one attempt, no timeouts.
struct RetryPolicy {
  /// Attempts per logical request (1 = never retry).
  u32 max_attempts = 1;
  /// First backoff; attempt k waits uniform(0, min(cap, base << (k-1)))
  /// — capped exponential with full jitter, so a thundering herd of
  /// retrying clients decorrelates.
  u64 backoff_us = 2'000;
  u64 backoff_cap_us = 100'000;
  /// Client-LIFETIME retry budget, spent one per retry (not per
  /// request). When it runs out the client fails fast until recreated;
  /// this is the storm brake.
  u64 retry_budget = 64;
  /// Bound on each TCP connect (0 = the kernel's eternity). See
  /// connect_to().
  u32 connect_timeout_ms = 0;
  /// Armed as the socket's per-I/O-call deadline for every attempt
  /// (0 = block forever). An attempt does at most three timed calls
  /// (write, header read, payload read), so a wedged attempt is over
  /// within ~3x this bound.
  u32 attempt_timeout_ms = 0;
  /// Wall-clock bound over ALL attempts of one logical request,
  /// including the backoff sleeps (0 = unbounded).
  u32 overall_deadline_ms = 0;
  /// Seed for the jitter stream — deterministic backoff in tests.
  u64 jitter_seed = 0x5eed;
};

/// What the retry machinery did, over the client's lifetime. Plain
/// values (the client is single-threaded); mirrored into the optional
/// MetricsRegistry as the ceresz_client_* counters.
struct ClientStats {
  u64 requests = 0;          ///< logical requests started
  u64 attempts = 0;          ///< wire attempts (>= requests)
  u64 retries = 0;           ///< budget spent
  u64 reconnects = 0;        ///< connections re-established after the first
  u64 timeouts = 0;          ///< attempts ended by NetTimeout
  u64 busy = 0;              ///< BUSY shed responses seen
  u64 draining = 0;          ///< DRAINING rejections seen
  u64 corrupt_responses = 0; ///< response frames that failed their CRC
  u64 budget_exhausted = 0;  ///< requests abandoned with budget at zero
};

// Client-side metric names (docs/observability.md naming convention).
inline constexpr const char* kClientMetricRequests =
    "ceresz_client_requests_total";
inline constexpr const char* kClientMetricAttempts =
    "ceresz_client_attempts_total";
inline constexpr const char* kClientMetricRetries =
    "ceresz_client_retries_total";
inline constexpr const char* kClientMetricReconnects =
    "ceresz_client_reconnects_total";
inline constexpr const char* kClientMetricTimeouts =
    "ceresz_client_timeouts_total";
inline constexpr const char* kClientMetricBusy =
    "ceresz_client_busy_total";
inline constexpr const char* kClientMetricDraining =
    "ceresz_client_draining_total";
inline constexpr const char* kClientMetricCorruptResponses =
    "ceresz_client_corrupt_responses_total";
inline constexpr const char* kClientMetricBudgetExhausted =
    "ceresz_client_budget_exhausted_total";

/// Materialize every ceresz_client_* metric at zero, so dashboards and
/// snapshots see the full family before the first fault (the same
/// declare-at-zero pattern as declare_server_metrics).
void declare_client_metrics(obs::MetricsRegistry& reg);

class CereszClient {
 public:
  /// Legacy fail-fast client: one attempt, no timeouts, no metrics.
  CereszClient() : CereszClient(RetryPolicy{}) {}

  /// A client with retry behavior. When `reg` is non-null (and must
  /// then outlive the client), the ceresz_client_* counters are bumped
  /// alongside ClientStats — registries are thread-safe, so concurrent
  /// clients can share one. A non-null `tracer` (same lifetime rule;
  /// per-thread rings, so concurrent clients can share one) records a
  /// span tree per logical request: a "client.request" root, one
  /// "client.attempt" span per wire attempt with nested connect/write/
  /// wait/read spans, and "client.backoff" spans between attempts.
  explicit CereszClient(RetryPolicy policy,
                        obs::MetricsRegistry* reg = nullptr,
                        obs::Tracer* tracer = nullptr);

  /// Record the server endpoint. A fail-fast policy (max_attempts <=
  /// 1) dials eagerly and throws ceresz::Error / NetTimeout here on
  /// failure; a retrying policy defers establishment to the first
  /// request, where connect-time faults are retried like any other
  /// transport failure. The host:port is remembered for automatic
  /// reconnects either way.
  void connect(const std::string& host, u16 port);

  bool connected() const { return sock_.valid(); }

  void close() { sock_.close(); }

  /// Stamp every subsequent request with a tenant id and scheduling
  /// priority (the CSNP v3 tenant fields). Tenant 0 — the default — is
  /// the untenanted legacy path; a tenancy-enabled server routes nonzero
  /// ids through its WaferCoordinator, which may shed a tenant whose
  /// quota cannot be met with a BUSY error frame (surfaced here as a
  /// retryable ServiceError, exactly like in-flight-limit shedding).
  void set_tenant(u32 tenant_id, u8 priority = kPriorityStandard) {
    tag_ = TenantTag{tenant_id, priority};
  }

  const TenantTag& tenant() const { return tag_; }

  /// Wire protocol version to emit: kProtocolVersion (default) or
  /// kProtocolVersionV3 for compatibility testing against newer
  /// servers. v3 frames cannot carry the trace context — the server
  /// synthesizes a trace id for them.
  void set_protocol_version(u8 version);

  u8 protocol_version() const { return wire_version_; }

  /// Tracer for client-side request/attempt spans; null disables
  /// recording (trace ids are still generated and sent on the wire, so
  /// server-side attribution works regardless).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// The trace id stamped on the most recent logical request (0 before
  /// the first). The stitcher's join key, exposed for tests.
  u64 last_trace_id() const { return last_trace_id_; }

  /// Round-trip a PING; returns the wall-clock round-trip in seconds.
  /// Also refreshes server_state().
  f64 ping();

  /// What the last PING said the server was doing: "SERVING",
  /// "DRAINING", or "" before the first ping. (v1 servers answer PING
  /// with an empty payload; that reads as "SERVING".)
  const std::string& server_state() const { return server_state_; }

  /// Compress `data` under `bound` on the server; returns the chunked
  /// "CSZC" container, byte-identical to a local
  /// ParallelEngine::compress with the server's engine configuration.
  /// `deadline_ms` = 0 uses the server's default deadline (if any).
  std::vector<u8> compress(std::span<const f32> data,
                           core::ErrorBound bound, u32 deadline_ms = 0);

  /// Decompress a chunked container on the server.
  std::vector<f32> decompress(std::span<const u8> stream,
                              u32 deadline_ms = 0);

  /// The server's metrics snapshot as JSON (ceresz_server_* and
  /// ceresz_engine_* families).
  std::string stats_json();

  const RetryPolicy& policy() const { return policy_; }
  const ClientStats& stats() const { return stats_; }

 private:
  /// Start the request frame in frame_: clear it and reserve the header
  /// for the wire version. The caller appends the payload after it.
  void begin_request();

  /// Run the logical request whose payload begin_request()'s caller
  /// wrote into frame_ through the retry loop: reconnect when
  /// disconnected, attempt, classify failures, back off, repeat. The
  /// payload CRC is computed once; each attempt restamps only the
  /// header. A non-null `values` takes an OK DECOMPRESS answer in place
  /// (see read_values); the returned payload is then empty.
  std::vector<u8> roundtrip(Opcode op, std::vector<f32>* values = nullptr);

  /// One wire attempt: stamp frame_'s header, send it, read the
  /// response, verify the payload CRC, unwrap error frames into
  /// ServiceError. `trace` is the attempt's wire trace context
  /// (parent_span_id = this attempt's span id, so the server's span tree
  /// joins to exactly this attempt).
  std::vector<u8> attempt_once(Opcode op, u64 id, u32 payload_crc,
                               TraceTag trace, std::vector<f32>* values);

  /// Read an OK DECOMPRESS payload straight into `values`: the count is
  /// checked against payload_bytes before anything is allocated, and
  /// the CRC is chained over the count and the values. A count that
  /// disagrees with the size, or a CRC mismatch, is a CorruptResponse.
  void read_values(const FrameHeader& header, std::vector<f32>& values);

  /// (Re-)establish the connection per the policy's timeouts.
  void establish_connection();

  /// Full-jitter backoff before retry number `retry_index` (1-based),
  /// clipped so it cannot sleep past `overall_deadline_ns` (0 = none).
  void backoff_sleep(u32 retry_index, u64 overall_deadline_ns);

  RetryPolicy policy_;
  obs::MetricsRegistry* reg_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  ClientStats stats_;
  Rng jitter_;

  Socket sock_;
  TenantTag tag_;  ///< stamped into every request frame
  u8 wire_version_ = kProtocolVersion;
  std::string host_;
  u16 port_ = 0;
  bool ever_connected_ = false;
  std::string server_state_;
  std::vector<u8> frame_;  ///< the request frame, built once per request
  u64 next_request_id_ = 1;
  u64 last_trace_id_ = 0;
};

}  // namespace ceresz::net
