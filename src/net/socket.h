// Thin RAII layer over POSIX TCP sockets for the compression service.
//
// Three pieces: Socket (an owned connected fd with read_exact/write_all
// helpers that retry short transfers and EINTR), TcpListener (bind +
// listen + accept, with shutdown() to wake a thread blocked in accept),
// and connect_to() for clients. Everything throws ceresz::Error on OS
// failures; nothing here knows about frames — that is net/protocol.h.
//
// Timeouts: set_io_timeout() arms a per-call deadline on every
// read_exact/write_all (enforced with poll(), so the fd stays blocking
// for everyone else); an expired deadline throws NetTimeout, a subclass
// of Error that retry layers can catch typed. wait_readable() is the
// idle-side primitive: "is there a next frame within T ms?" without
// committing to a read. connect_to() takes an optional connect timeout
// (non-blocking connect + poll) so a black-holed address cannot wedge a
// client forever.
//
// Scope: loopback/LAN transport for the service layer. TLS and IPv6 are
// out of scope for the repro; the framing above this layer is
// transport-agnostic, so swapping in a richer transport later touches
// only this file.
#pragma once

#include <span>
#include <string>

#include "common/error.h"
#include "common/types.h"

namespace ceresz::net {

/// An I/O deadline expired (read, write, or connect). Subclass of Error
/// so existing catch sites keep working; retry layers catch it typed to
/// count timeouts separately from resets.
class NetTimeout : public Error {
 public:
  explicit NetTimeout(const std::string& what)
      : Error(what, ErrorKind::kDeadline) {}
};

/// An owned socket file descriptor. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept
      : fd_(other.fd_), io_timeout_ms_(other.io_timeout_ms_) {
    other.fd_ = -1;
  }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void close() noexcept;

  /// Half-close both directions without releasing the fd: wakes any
  /// thread blocked in read()/write()/poll() on this socket (they see
  /// EOF / EPIPE). Safe to call from another thread; close() is not,
  /// because the fd number could be reused mid-read.
  void shutdown_both() noexcept;

  /// Half-close the send direction only: the peer sees EOF after the
  /// bytes in flight, reads still work. How a proxy propagates one
  /// side's clean close to the other.
  void shutdown_write() noexcept;

  /// Abortive close: SO_LINGER(0) + close, so the peer sees an RST
  /// (ECONNRESET) instead of a clean FIN. The chaos layer's "connection
  /// reset" fault; also the right way to drop a peer judged hostile.
  void reset_hard() noexcept;

  /// Disable Nagle's algorithm — request/response frames should not wait
  /// for a coalescing timer. Best-effort (ignored on failure).
  void set_nodelay() noexcept;

  /// Arm a deadline, in milliseconds, applied to each subsequent
  /// read_exact/read_exact_or_eof/write_all call as a whole (the clock
  /// starts when the call starts, so a peer dribbling one byte per
  /// second cannot stretch a 4 KiB read forever). 0 = block
  /// indefinitely (the default). Not thread-safe against concurrent
  /// I/O; set it right after connect/accept.
  void set_io_timeout(u32 ms) { io_timeout_ms_ = ms; }
  u32 io_timeout_ms() const { return io_timeout_ms_; }

  /// Block until the socket is readable (data, EOF, or error — anything
  /// a read would not block on), up to `timeout_ms` (0 = forever).
  /// Returns false on timeout. The idle-connection probe: it commits to
  /// nothing, so a false return can reap the connection without having
  /// consumed bytes.
  bool wait_readable(u32 timeout_ms) const;

  /// Write all of `bytes`, retrying short writes and EINTR. Throws
  /// ceresz::Error when the peer is gone or the fd is invalid, and
  /// NetTimeout when an armed I/O deadline expires first.
  void write_all(std::span<const u8> bytes) const;

  /// Read exactly out.size() bytes. Throws ceresz::Error on EOF or
  /// error, NetTimeout on an expired I/O deadline.
  void read_exact(std::span<u8> out) const;

  /// Like read_exact, but a clean EOF *before the first byte* returns
  /// false instead of throwing (how a peer politely ends a connection
  /// between frames). EOF mid-buffer still throws: a truncated frame.
  bool read_exact_or_eof(std::span<u8> out) const;

  /// read_exact that also returns the CRC32C of what it read, chained
  /// from `seed` (see crc32c). Each received piece is checksummed as
  /// it lands, while it is still in cache, instead of in a second pass
  /// over a multi-MB payload.
  u32 read_exact_crc32c(std::span<u8> out, u32 seed = 0) const;

  /// One recv(): up to out.size() bytes, whatever is available. Returns
  /// 0 on EOF, throws on error. The relay primitive — it must see bytes
  /// as they arrive, not wait for a full buffer.
  std::size_t read_some(std::span<u8> out) const;

 private:
  /// The receive loop behind the read_* calls; `crc` (nullable) is
  /// updated over every piece received.
  bool read_into(std::span<u8> out, u32* crc) const;

  int fd_ = -1;
  u32 io_timeout_ms_ = 0;
};

/// Listening TCP socket bound to 127.0.0.1 (the service is fronted by a
/// local proxy in any real deployment; binding loopback keeps the repro
/// from opening a public port). Port 0 binds an ephemeral port — read
/// the real one back with port().
class TcpListener {
 public:
  /// Binds and listens immediately; throws ceresz::Error on failure.
  explicit TcpListener(u16 port, int backlog = 64);
  ~TcpListener() { close(); }

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The bound port (resolved for ephemeral binds).
  u16 port() const { return port_; }

  bool valid() const { return fd_ >= 0; }

  /// Block until a client connects. Returns an invalid Socket (instead
  /// of throwing) once shutdown() has been called — the accept loop's
  /// clean exit signal.
  Socket accept_connection();

  /// Wake a thread blocked in accept_connection(); it returns an
  /// invalid Socket. Callable from any thread.
  void shutdown() noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
  u16 port_ = 0;
};

/// Connect to `host:port` (numeric IPv4 or a resolvable name). With
/// `connect_timeout_ms` > 0 the TCP handshake itself is bounded
/// (non-blocking connect + poll): a black-holed address throws
/// NetTimeout instead of blocking for the kernel's SYN-retry eternity.
/// Throws ceresz::Error when the connection cannot be established.
Socket connect_to(const std::string& host, u16 port,
                  u32 connect_timeout_ms = 0);

}  // namespace ceresz::net
