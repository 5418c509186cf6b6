#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>
#include <string>

#include "common/checksum.h"
#include "common/error.h"
#include "common/timer.h"

namespace ceresz::net {

namespace {

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Block until `events` (or error/hang-up) on `fd`, up to `deadline_ns`
/// on the shared monotonic clock (0 = wait forever). Returns false on
/// timeout; readiness — including POLLERR/POLLHUP, which the following
/// recv/send will surface as a proper errno — returns true. Retries
/// EINTR with the remaining budget.
bool wait_for(int fd, short events, u64 deadline_ns) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline_ns != 0) {
      const u64 now = now_ns();
      if (now >= deadline_ns) return false;
      const u64 remaining_ms = (deadline_ns - now + 999'999) / 1'000'000;
      timeout_ms = remaining_ms > static_cast<u64>(INT_MAX)
                       ? INT_MAX
                       : static_cast<int>(remaining_ms);
    }
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    throw Error(errno_message("Socket: poll"));
  }
}

u64 io_deadline(u32 timeout_ms) {
  return timeout_ms == 0 ? 0
                         : now_ns() + static_cast<u64>(timeout_ms) * 1'000'000;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    io_timeout_ms_ = other.io_timeout_ms_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::shutdown_write() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::reset_hard() noexcept {
  if (fd_ < 0) return;
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;  // close() sends RST instead of FIN
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd_);
  fd_ = -1;
}

void Socket::set_nodelay() noexcept {
  if (fd_ < 0) return;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool Socket::wait_readable(u32 timeout_ms) const {
  CERESZ_CHECK(fd_ >= 0, "Socket::wait_readable: socket is closed");
  return wait_for(fd_, POLLIN, io_deadline(timeout_ms));
}

void Socket::write_all(std::span<const u8> bytes) const {
  CERESZ_CHECK(fd_ >= 0, "Socket::write_all: socket is closed");
  const u64 deadline = io_deadline(io_timeout_ms_);
  std::size_t done = 0;
  while (done < bytes.size()) {
    if (deadline != 0 && !wait_for(fd_, POLLOUT, deadline)) {
      throw NetTimeout("Socket::write_all: timed out after " +
                       std::to_string(io_timeout_ms_) +
                       " ms (slow or stalled peer)");
    }
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(errno_message("Socket::write_all"));
    }
    done += static_cast<std::size_t>(n);
  }
}

void Socket::read_exact(std::span<u8> out) const {
  if (!read_exact_or_eof(out)) {
    throw Error("Socket::read_exact: connection closed by peer");
  }
}

bool Socket::read_exact_or_eof(std::span<u8> out) const {
  return read_into(out, nullptr);
}

u32 Socket::read_exact_crc32c(std::span<u8> out, u32 seed) const {
  u32 crc = seed;
  if (!read_into(out, &crc)) {
    throw Error("Socket::read_exact: connection closed by peer");
  }
  return crc;
}

bool Socket::read_into(std::span<u8> out, u32* crc) const {
  CERESZ_CHECK(fd_ >= 0, "Socket::read_exact: socket is closed");
  const u64 deadline = io_deadline(io_timeout_ms_);
  std::size_t done = 0;
  while (done < out.size()) {
    if (deadline != 0 && !wait_for(fd_, POLLIN, deadline)) {
      throw NetTimeout("Socket::read_exact: timed out after " +
                       std::to_string(io_timeout_ms_) +
                       " ms (slow or stalled peer)");
    }
    const ssize_t n = ::recv(fd_, out.data() + done, out.size() - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(errno_message("Socket::read_exact"));
    }
    if (n == 0) {
      if (done == 0) return false;  // clean EOF between frames
      throw Error("Socket::read_exact: connection truncated mid-frame");
    }
    if (crc != nullptr) {
      *crc = crc32c(out.subspan(done, static_cast<std::size_t>(n)), *crc);
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t Socket::read_some(std::span<u8> out) const {
  CERESZ_CHECK(fd_ >= 0, "Socket::read_some: socket is closed");
  for (;;) {
    const ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    throw Error(errno_message("Socket::read_some"));
  }
}

TcpListener::TcpListener(u16 port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error(errno_message("TcpListener: socket"));

  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string msg = errno_message("TcpListener: bind");
    close();
    throw Error(msg);
  }
  if (::listen(fd_, backlog) != 0) {
    const std::string msg = errno_message("TcpListener: listen");
    close();
    throw Error(msg);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string msg = errno_message("TcpListener: getsockname");
    close();
    throw Error(msg);
  }
  port_ = ntohs(bound.sin_port);
}

Socket TcpListener::accept_connection() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    // shutdown() (EINVAL on Linux) or close() ends the accept loop; any
    // other error also reads as "listener is done" rather than crashing
    // the server, matching how long-running daemons treat accept errors.
    return Socket();
  }
}

void TcpListener::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket connect_to(const std::string& host, u16 port, u32 connect_timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    throw Error("connect_to: cannot resolve " + host + ": " +
                gai_strerror(rc));
  }

  int last_errno = 0;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    bool connected = false;
    if (connect_timeout_ms == 0) {
      connected = ::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0;
      if (!connected) last_errno = errno;
    } else {
      // Bounded handshake: non-blocking connect, poll for writability,
      // then read the handshake's verdict out of SO_ERROR. The fd is
      // restored to blocking before use — timeouts on an *established*
      // socket are set_io_timeout()'s job, enforced per call with poll.
      const int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      const int crc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
      if (crc == 0) {
        connected = true;
      } else if (errno == EINPROGRESS) {
        const u64 deadline =
            now_ns() + static_cast<u64>(connect_timeout_ms) * 1'000'000;
        if (!wait_for(fd, POLLOUT, deadline)) {
          ::close(fd);
          ::freeaddrinfo(res);
          throw NetTimeout("connect_to: no response from " + host + ":" +
                           service + " within " +
                           std::to_string(connect_timeout_ms) + " ms");
        }
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
        if (so_error == 0) {
          connected = true;
        } else {
          last_errno = so_error;
        }
      } else {
        last_errno = errno;
      }
      if (connected) ::fcntl(fd, F_SETFL, flags);
    }
    if (connected) {
      ::freeaddrinfo(res);
      Socket sock(fd);
      sock.set_nodelay();
      return sock;
    }
    ::close(fd);
  }
  ::freeaddrinfo(res);
  throw Error("connect_to: cannot connect to " + host + ":" + service + ": " +
              std::strerror(last_errno));
}

}  // namespace ceresz::net
