// Live telemetry plane: a tiny HTTP endpoint that serves the metrics
// registry and the tracer's recent request spans, so a running daemon
// can be inspected with nothing but curl:
//
//   GET /metrics  -> Prometheus text exposition of the live registry
//                    (with the tracer's ring drops exported first)
//   GET /healthz  -> 200 "ok" (503 "draining" once drain begins)
//   GET /tracez   -> JSON dump of the most recent server.request roots
//                    (trace id, request id, tenant, status, timing) and
//                    their phase spans
//
// /tracez reads the same Tracer rings the Chrome trace is written from;
// the rings are safe to read while the server records (obs/trace.h).
//
// The listener is deliberately minimal: loopback-only POSIX sockets, a
// poll loop with a stop flag, one request per connection, GET only. It
// lives in src/obs (not src/net) because ceresz_net links ceresz_obs —
// reusing net::Socket here would cycle the layering.
#pragma once

#include <atomic>
#include <thread>

#include "common/types.h"

namespace ceresz::obs {

class Logger;
class MetricsRegistry;
class Tracer;

struct TelemetryOptions {
  u16 port = 0;  ///< 0 = kernel-assigned ephemeral port
  /// Scraped by /metrics. May be null (404 then). Must outlive the
  /// endpoint; snapshot() is safe against concurrent updates.
  MetricsRegistry* metrics = nullptr;
  /// Rendered by /tracez. May be null (404 then). Must outlive the
  /// endpoint. With `metrics` also set, each /metrics scrape first
  /// exports the tracer's new ring drops.
  Tracer* tracer = nullptr;
  /// Optional request/error log. Must outlive the endpoint.
  Logger* logger = nullptr;
};

class TelemetryEndpoint {
 public:
  explicit TelemetryEndpoint(TelemetryOptions options);
  ~TelemetryEndpoint();

  TelemetryEndpoint(const TelemetryEndpoint&) = delete;
  TelemetryEndpoint& operator=(const TelemetryEndpoint&) = delete;

  /// Bind 127.0.0.1, listen, and start the serving thread. Throws
  /// common::Error on bind failure.
  void start();

  /// The bound port (valid after start()).
  u16 port() const { return port_; }

  /// Flip /healthz to 503 "draining" (idempotent).
  void set_draining(bool draining) {
    draining_.store(draining, std::memory_order_release);
  }

  /// Stop serving and join the thread (idempotent).
  void stop();

  u64 requests_served() const {
    return served_.load(std::memory_order_acquire);
  }

 private:
  void serve_loop();
  void handle_connection(int fd);

  TelemetryOptions options_;
  int listen_fd_ = -1;
  u16 port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<u64> served_{0};
};

}  // namespace ceresz::obs
