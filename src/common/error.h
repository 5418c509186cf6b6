// Error handling: a single exception type plus CHECK-style macros.
//
// Following the C++ Core Guidelines (E.2, E.3) we throw exceptions for
// contract violations and unrecoverable conditions rather than returning
// error codes; all public API entry points document what they throw.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ceresz {

/// Whose fault a failure is, decided where it is thrown. Callers (the
/// engine's retry ladder, the service's status) read it, never the message.
enum class ErrorKind : std::uint8_t {
  kInvalidArgument,  ///< the caller's input or bound (NaN data, ε too small)
  kCorruptData,      ///< a stream's bytes (bad CRC, undecodable record)
  kDeadline,         ///< a time budget ran out
  kInternal,         ///< anything else
};

/// Exception thrown on any contract violation or malformed input inside the
/// CereSZ library (bad configuration, corrupt compressed stream, simulator
/// misuse such as routing a color that was never configured, ...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, ErrorKind kind = ErrorKind::kInternal)
      : std::runtime_error(what), kind_(kind) {}
  ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

namespace detail {
[[noreturn]] void throw_error(const char* file, int line, const char* cond,
                              const std::string& message,
                              ErrorKind kind = ErrorKind::kInternal);
}  // namespace detail

}  // namespace ceresz

/// Check a runtime condition; throws ceresz::Error of `kind` with location
/// info when the condition is false. Used for argument validation and
/// stream parsing, so it stays enabled in release builds.
#define CERESZ_CHECK_KIND(cond, kind, msg)                                  \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::ceresz::detail::throw_error(__FILE__, __LINE__, #cond, (msg), kind); \
    }                                                                       \
  } while (false)
#define CERESZ_CHECK(cond, msg) \
  CERESZ_CHECK_KIND(cond, ::ceresz::ErrorKind::kInternal, msg)

/// Unconditional failure with a message.
#define CERESZ_FAIL(msg) \
  ::ceresz::detail::throw_error(__FILE__, __LINE__, "failure", (msg))
