#include "obs/telemetry.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ceresz::obs {

namespace {

/// Write all of `data`, tolerating short writes; best effort (the
/// scraper may have gone away — that is its problem, not ours).
void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string http_response(int code, const char* reason,
                          const char* content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(code);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Requests /tracez shows: the most recent server.request roots.
constexpr std::size_t kTracezRequests = 256;

/// The children of a server.request root that /tracez lists: the
/// server's phases and the engine run, whose name gives the op.
bool is_tracez_phase(std::string_view name) {
  return name == "server.queue_wait" || name == "server.decode" ||
         name == "server.engine" || name == "server.encode" ||
         name == "server.write" || name == "engine.compress" ||
         name == "engine.decompress";
}

/// {"dropped_events":N,"requests":[...]}: each server.request root
/// (status in its category, request and tenant id in its two args, as
/// net/server.cpp records it) with its phase spans, oldest first.
std::string tracez_json(const Tracer& tracer) {
  const std::vector<TraceEvent> events = tracer.snapshot_events();
  std::vector<const TraceEvent*> roots;
  for (const TraceEvent& ev : events) {
    if (std::string_view(ev.name) == "server.request") roots.push_back(&ev);
  }
  if (roots.size() > kTracezRequests) {
    roots.erase(roots.begin(), roots.end() - kTracezRequests);
  }
  std::unordered_map<u64, std::vector<const TraceEvent*>> phases;
  for (const TraceEvent* root : roots) phases[root->span_id];
  for (const TraceEvent& ev : events) {
    if (ev.parent_span_id == 0 || !is_tracez_phase(ev.name)) continue;
    const auto it = phases.find(ev.parent_span_id);
    if (it != phases.end()) it->second.push_back(&ev);
  }

  std::string out = "{\"dropped_events\":" +
                    std::to_string(tracer.events_dropped()) + ",\"requests\":[";
  const char* sep = "\n";
  for (const TraceEvent* root : roots) {
    out += sep;
    sep = ",\n";
    out += "{\"trace_id\":" + std::to_string(root->trace_id) +
           ",\"request_id\":" + std::to_string(root->arg1) +
           ",\"tenant_id\":" + std::to_string(root->arg2) + ",\"status\":";
    append_json_string(out, root->cat);
    out += ",\"ts_ns\":" + std::to_string(root->ts_ns) +
           ",\"dur_ns\":" + std::to_string(root->dur_ns) + ",\"spans\":[";
    const char* span_sep = "";
    for (const TraceEvent* span : phases[root->span_id]) {
      out += span_sep;
      span_sep = ",";
      out += "{\"name\":\"" + std::string(span->name) +
             "\",\"dur_ns\":" + std::to_string(span->dur_ns) + "}";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// TelemetryEndpoint
// ---------------------------------------------------------------------------

TelemetryEndpoint::TelemetryEndpoint(TelemetryOptions options)
    : options_(options) {}

TelemetryEndpoint::~TelemetryEndpoint() { stop(); }

void TelemetryEndpoint::start() {
  CERESZ_CHECK(listen_fd_ < 0, "TelemetryEndpoint: already started");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CERESZ_CHECK(fd >= 0, "TelemetryEndpoint: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    CERESZ_FAIL(std::string("TelemetryEndpoint: bind failed: ") +
                std::strerror(err));
  }
  if (::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    CERESZ_FAIL(std::string("TelemetryEndpoint: listen failed: ") +
                std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  if (options_.logger != nullptr) {
    options_.logger->info("telemetry.start",
                          {{"port", static_cast<u32>(port_)}});
  }
}

void TelemetryEndpoint::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void TelemetryEndpoint::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 100);
    if (rc <= 0) continue;  // timeout (recheck stop flag) or EINTR
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    handle_connection(conn);
    ::close(conn);
  }
}

void TelemetryEndpoint::handle_connection(int fd) {
  // Scrapes are tiny: read up to 4 KiB or until the header terminator,
  // with poll-bounded patience so a stuck client cannot wedge the loop.
  std::string req;
  char buf[1024];
  for (int rounds = 0; rounds < 20 && req.find("\r\n\r\n") ==
       std::string::npos && req.size() < 4096; ++rounds) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 100) <= 0) {
      if (stop_.load(std::memory_order_acquire)) return;
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t sp1 = req.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : req.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    write_all(fd, http_response(400, "Bad Request", "text/plain",
                                "malformed request\n"));
    return;
  }
  const std::string method = req.substr(0, sp1);
  std::string path = req.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  served_.fetch_add(1, std::memory_order_relaxed);
  if (method != "GET") {
    write_all(fd, http_response(405, "Method Not Allowed", "text/plain",
                                "GET only\n"));
    return;
  }

  if (path == "/healthz") {
    if (draining_.load(std::memory_order_acquire)) {
      write_all(fd, http_response(503, "Service Unavailable", "text/plain",
                                  "draining\n"));
    } else {
      write_all(fd, http_response(200, "OK", "text/plain", "ok\n"));
    }
    return;
  }
  if (path == "/metrics" && options_.metrics != nullptr) {
    if (options_.tracer != nullptr) {
      export_trace_metrics(*options_.tracer, *options_.metrics);
    }
    const std::string body = to_prometheus(options_.metrics->snapshot());
    write_all(fd, http_response(200, "OK",
                                "text/plain; version=0.0.4", body));
    return;
  }
  if (path == "/tracez" && options_.tracer != nullptr) {
    write_all(fd, http_response(200, "OK", "application/json",
                                tracez_json(*options_.tracer)));
    return;
  }
  write_all(fd,
            http_response(404, "Not Found", "text/plain", "not found\n"));
}

}  // namespace ceresz::obs
