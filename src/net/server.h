// ServiceServer: the long-running network front end of ParallelEngine.
//
// Architecture (docs/service.md has the full picture):
//
//   accept loop ──▶ one reader thread per connection
//                     │  parses CSNP frames (net/protocol.h), answers
//                     │  PING/STATS inline, and admits COMPRESS /
//                     │  DECOMPRESS work under a bounded in-flight
//                     │  limit — beyond it the request is rejected
//                     │  immediately with a BUSY error frame instead of
//                     │  queueing without bound (load shedding, not
//                     │  collapse).
//                     ▼
//            BoundedQueue<PendingRequest>   (capacity = max in-flight)
//                     ▼
//          N connection-worker threads ──▶ engine::ParallelEngine
//
// Request/response payload buffers come from a memec-style BufferPool,
// so steady-state traffic recycles its large buffers instead of
// allocating per frame.
//
// Deadlines: a request may carry deadline_ms (or inherit the server
// default). The clock starts at frame arrival; a request whose deadline
// passed while queued is answered DEADLINE_EXPIRED without touching the
// engine, and one that makes it to a worker runs with the engine's
// per-attempt deadline clamped to the remaining budget — each attempt's
// CancelToken expires with it, so a slow or wedged chunk stops and the
// connection is never wedged (see engine/chunk_runner.h).
//
// Hostile-peer hardening: io_timeout_ms bounds every socket read and
// write per call (a slow-loris peer dribbling header bytes, or one that
// never drains its receive window, is timed out and dropped without
// touching other connections); idle_timeout_ms reaps connections that
// sit silent between frames; and every payload is checked against the
// frame CRC (v2 header) before decoding — a corrupted request draws a
// MALFORMED error frame on a still-usable connection, never a silent
// compress of garbage. drain() is the graceful-exit half: new work is
// refused with DRAINING frames while in-flight requests finish, which
// is what ceresz_server does on SIGTERM.
//
// Observability: every counter/gauge/histogram below lands in the
// server's MetricsRegistry (exported by the STATS opcode and the
// daemon's --metrics-out flag), alongside the ceresz_engine_* families
// the per-request engines accumulate into the same registry.
#pragma once

#include <memory>
#include <string>

#include "common/types.h"
#include "engine/parallel_engine.h"
#include "net/protocol.h"
#include "obs/metrics.h"

namespace ceresz::tenant {
class WaferCoordinator;
}  // namespace ceresz::tenant

namespace ceresz::obs {
class Logger;
class Tracer;
}  // namespace ceresz::obs

namespace ceresz::net {

// Canonical server metric names (Prometheus families; see
// docs/service.md for semantics).
inline constexpr const char* kMetricConnections =
    "ceresz_server_connections_total";
inline constexpr const char* kMetricActiveConnections =
    "ceresz_server_active_connections";
inline constexpr const char* kMetricRequests =
    "ceresz_server_requests_total";
inline constexpr const char* kMetricPingRequests =
    "ceresz_server_ping_total";
inline constexpr const char* kMetricStatsRequests =
    "ceresz_server_stats_total";
inline constexpr const char* kMetricCompressRequests =
    "ceresz_server_compress_total";
inline constexpr const char* kMetricDecompressRequests =
    "ceresz_server_decompress_total";
inline constexpr const char* kMetricBusyRejected =
    "ceresz_server_busy_rejected_total";
inline constexpr const char* kMetricDeadlineExpired =
    "ceresz_server_deadline_expired_total";
inline constexpr const char* kMetricMalformed =
    "ceresz_server_malformed_total";
inline constexpr const char* kMetricErrorResponses =
    "ceresz_server_error_responses_total";
inline constexpr const char* kMetricRequestBytes =
    "ceresz_server_request_bytes_total";
inline constexpr const char* kMetricResponseBytes =
    "ceresz_server_response_bytes_total";
inline constexpr const char* kMetricInflight = "ceresz_server_inflight";
inline constexpr const char* kMetricInflightHighWater =
    "ceresz_server_inflight_high_water";
inline constexpr const char* kMetricCompressSeconds =
    "ceresz_server_compress_seconds";
inline constexpr const char* kMetricDecompressSeconds =
    "ceresz_server_decompress_seconds";
inline constexpr const char* kMetricPoolHits =
    "ceresz_server_pool_hits_total";
inline constexpr const char* kMetricPoolMisses =
    "ceresz_server_pool_misses_total";
inline constexpr const char* kMetricIdleReaped =
    "ceresz_server_idle_reaped_total";
inline constexpr const char* kMetricIoTimeouts =
    "ceresz_server_io_timeouts_total";
inline constexpr const char* kMetricPayloadCrcRejected =
    "ceresz_server_payload_crc_rejected_total";
inline constexpr const char* kMetricDrainRejected =
    "ceresz_server_drain_rejected_total";
inline constexpr const char* kMetricDraining = "ceresz_server_draining";
inline constexpr const char* kMetricTenantShed =
    "ceresz_server_tenant_shed_total";

struct ServerOptions {
  /// Port to bind on 127.0.0.1; 0 binds an ephemeral port (read it back
  /// with ServiceServer::port() — how tests avoid collisions).
  u16 port = 0;

  /// Connection-worker threads executing COMPRESS/DECOMPRESS requests.
  /// Each runs the engine with EngineOptions::threads workers of its
  /// own, so total parallelism is workers x engine threads.
  u32 workers = 2;

  /// Bound on requests admitted but not yet answered (queued +
  /// executing). Beyond it new work is rejected with a BUSY error frame.
  /// 0 picks 2 * workers.
  u64 max_inflight = 0;

  /// Deadline applied to requests that do not carry their own
  /// deadline_ms. 0 = no default deadline.
  u32 default_deadline_ms = 0;

  /// Anti-bomb bound on a frame's declared payload size; frames
  /// declaring more are rejected as malformed before any allocation.
  u64 max_frame_payload = kDefaultMaxPayload;

  /// Retired I/O buffers kept for reuse (BufferPool free-list cap).
  std::size_t pool_buffers = 32;

  /// Per-I/O-call deadline on every connection socket (reads AND
  /// response writes), enforced with poll so one slow-loris peer —
  /// dribbling a header byte at a time, or never draining its receive
  /// window — times out and is dropped while every other connection
  /// keeps serving. 0 = no bound (the library default; ceresz_server
  /// defaults to 30 s).
  u32 io_timeout_ms = 0;

  /// How long a connection may sit idle BETWEEN frames before the
  /// reaper hangs it up. Distinct from io_timeout_ms: idle-between-
  /// frames is polite (a keep-alive client), so the default 0 allows it
  /// forever; set a bound when fd exhaustion matters more than
  /// keep-alive convenience.
  u32 idle_timeout_ms = 0;

  /// Engine configuration used for every request. `metrics` is
  /// overridden to point at the server's registry; `tracer` is
  /// overridden by the server-level `tracer` below when that is set.
  /// `faults` is kept — chaos tests inject engine faults to exercise
  /// the service's deadline/error paths.
  engine::EngineOptions engine;

  /// Distributed tracing (docs/observability.md). When set (and
  /// outliving the server), every COMPRESS/DECOMPRESS request records a
  /// span tree — queue-wait / decode / admission / engine-run / encode /
  /// write — tagged with the request id, tenant id, and the trace
  /// context from the v4 frame header (v3 and zero-trace requests get a
  /// synthesized server-side trace id). The per-request engine runs
  /// record into the same tracer, so chunk spans inherit the trace id.
  /// The "server.request" root carries the reply's status_name() as its
  /// category; the telemetry endpoint's /tracez renders these roots.
  obs::Tracer* tracer = nullptr;

  /// Structured JSON-lines log for server lifecycle and error paths
  /// (replaces ad-hoc stderr prints). Null disables. Must outlive the
  /// server.
  obs::Logger* logger = nullptr;

  /// Multi-tenant wafer coordination (docs/tenancy.md). When enabled,
  /// COMPRESS/DECOMPRESS frames carrying a nonzero tenant id (CSNP v3)
  /// are routed through a WaferCoordinator: the first frame from a new
  /// tenant admits it — a wafer lease sized by the Formula (2)-(4)
  /// prediction against `default_quota_gbps` scaled by the frame's
  /// priority — and a tenant the coordinator cannot place is shed with
  /// a BUSY error frame carrying the admission verdict. Tenant id 0
  /// (the default tag) always bypasses the coordinator, so legacy
  /// clients are unaffected. The ceresz_tenant_* families land in the
  /// server's registry next to ceresz_server_*.
  struct TenancyOptions {
    bool enabled = false;
    /// The coordinated wafer's geometry. Sized like the test meshes,
    /// not the full 750x994 wafer: leases must stay exactly simulable.
    u32 wafer_rows = 12;
    u32 wafer_cols = 8;
    u32 max_tenants = 8;
    /// Admission quota of a standard-priority tenant in GB/s;
    /// interactive tenants ask for 2x, batch for 0.5x. 0 = best effort
    /// (any free usable row admits).
    f64 default_quota_gbps = 0.0;
  };
  TenancyOptions tenancy;
};

class ServiceServer {
 public:
  explicit ServiceServer(ServerOptions options);

  /// Stops the server if it is still running.
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Bind, listen, and launch the accept loop and worker threads.
  /// Throws ceresz::Error when the port cannot be bound.
  void start();

  /// Graceful shutdown: stop accepting, wake and join every reader,
  /// drain the request queue, join the workers. Idempotent.
  void stop();

  /// Enter drain mode: stop accepting new connections, reject new
  /// COMPRESS/DECOMPRESS work with DRAINING error frames, keep
  /// answering PING (payload "DRAINING") and STATS, and let in-flight
  /// requests finish. Pair with wait_idle() then stop() — the daemon's
  /// SIGTERM path. Idempotent; a no-op when not running.
  void drain();

  /// True once drain() has been called (and the server is running).
  bool draining() const;

  /// Requests admitted but not yet answered (queued + executing).
  u64 inflight() const;

  /// Block until inflight() reaches 0 or `timeout_ms` passes (0 = wait
  /// forever). Returns true when idle was reached.
  bool wait_idle(u32 timeout_ms);

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (valid after start(); resolves ephemeral binds).
  u16 port() const;

  u64 resolved_max_inflight() const;

  /// The server's registry: ceresz_server_* plus the ceresz_engine_*
  /// families accumulated by per-request engine runs. Safe to snapshot
  /// concurrently with serving.
  obs::MetricsRegistry& metrics() { return registry_; }

  /// The wafer coordinator when tenancy is enabled and the server is
  /// running; nullptr otherwise. Thread-safe to use while serving
  /// (tests inject fault storms into live leases through it).
  tenant::WaferCoordinator* coordinator();

  const ServerOptions& options() const { return options_; }

 private:
  struct Impl;
  ServerOptions options_;
  obs::MetricsRegistry registry_;
  std::atomic<bool> running_{false};
  std::unique_ptr<Impl> impl_;
};

/// Pre-create every ceresz_server_* metric family at zero (mirrors
/// engine::declare_engine_metrics) so exports advertise the full family
/// set before the first request.
void declare_server_metrics(obs::MetricsRegistry& reg);

}  // namespace ceresz::net
