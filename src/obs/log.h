// obs::Logger — leveled, rate-limited, JSON-lines structured logging.
//
// Each call emits one self-contained JSON object on a single line:
//
//   {"ts_ns":123,"level":"warn","event":"conn.reset","request_id":7}
//
// so `grep event | jq` works on daemon logs without a parser. The
// logger replaces ad-hoc fprintf in the service daemon, ServiceServer,
// and ChaosProxy; human-facing CLI output (usage text, the "listening
// on" line CI greps) stays on printf.
//
// Concurrency: one mutex around format+write makes lines atomic across
// threads. Rate limiting is a token bucket refilled at
// `max_events_per_sec`; over-budget records are counted, not written,
// and a single "log.suppressed" line with the count is emitted when
// capacity returns. Error-level records bypass the limiter — a crash
// report must never be the record that got shed.
#pragma once

#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace ceresz::obs {

enum class LogLevel : u8 { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* log_level_name(LogLevel level);

/// Append `s` to `out` as a quoted JSON string: the one escaping used by
/// log lines, metrics and trace exports, the stitcher and /tracez.
void append_json_string(std::string& out, std::string_view s);

/// One key/value pair of a structured record. Values keep their JSON
/// type: strings are escaped+quoted, integers and floats emitted bare.
struct LogField {
  enum class Kind : u8 { kString, kInt, kFloat };

  LogField(const char* k, const std::string& v)
      : key(k), kind(Kind::kString), str(v) {}
  LogField(const char* k, const char* v)
      : key(k), kind(Kind::kString), str(v) {}
  LogField(const char* k, i64 v) : key(k), kind(Kind::kInt), num_i(v) {}
  LogField(const char* k, u64 v)
      : key(k), kind(Kind::kInt), num_i(static_cast<i64>(v)) {}
  LogField(const char* k, u32 v)
      : key(k), kind(Kind::kInt), num_i(static_cast<i64>(v)) {}
  LogField(const char* k, int v)
      : key(k), kind(Kind::kInt), num_i(static_cast<i64>(v)) {}
  LogField(const char* k, f64 v) : key(k), kind(Kind::kFloat), num_f(v) {}

  const char* key;
  Kind kind;
  std::string str;
  i64 num_i = 0;
  f64 num_f = 0.0;
};

struct LoggerOptions {
  LogLevel min_level = LogLevel::kInfo;
  /// Token-bucket rate (and burst) for non-error records; 0 disables
  /// rate limiting entirely.
  u32 max_events_per_sec = 200;
  /// Destination stream; nullptr means stderr. Must outlive the logger.
  std::ostream* sink = nullptr;
};

class Logger {
 public:
  explicit Logger(LoggerOptions options = {});

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void log(LogLevel level, const char* event,
           std::initializer_list<LogField> fields = {});

  void debug(const char* event, std::initializer_list<LogField> f = {}) {
    log(LogLevel::kDebug, event, f);
  }
  void info(const char* event, std::initializer_list<LogField> f = {}) {
    log(LogLevel::kInfo, event, f);
  }
  void warn(const char* event, std::initializer_list<LogField> f = {}) {
    log(LogLevel::kWarn, event, f);
  }
  void error(const char* event, std::initializer_list<LogField> f = {}) {
    log(LogLevel::kError, event, f);
  }

  LogLevel min_level() const { return options_.min_level; }

  /// Records written / shed by the rate limiter, for tests and /metrics.
  u64 emitted() const;
  u64 suppressed() const;

 private:
  void write_record_locked(LogLevel level, const char* event,
                           const LogField* fields, std::size_t n_fields,
                           u64 ts);

  LoggerOptions options_;
  mutable std::mutex mu_;
  std::ostream* sink_;         // resolved (never null)
  f64 tokens_;                 // token bucket, <= max_events_per_sec
  u64 last_refill_ns_ = 0;
  u64 pending_suppressed_ = 0; // shed since the last emitted line
  u64 emitted_ = 0;
  u64 suppressed_ = 0;
  std::string line_;           // reused scratch buffer
};

/// Parse "debug"/"info"/"warn"/"error" (case-sensitive). Returns false
/// and leaves `out` untouched on anything else.
bool parse_log_level(const std::string& text, LogLevel& out);

}  // namespace ceresz::obs
