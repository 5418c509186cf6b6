#include "obs/log.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <ostream>

#include "common/timer.h"

namespace ceresz::obs {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "info";
}

bool parse_log_level(const std::string& text, LogLevel& out) {
  if (text == "debug") { out = LogLevel::kDebug; return true; }
  if (text == "info") { out = LogLevel::kInfo; return true; }
  if (text == "warn") { out = LogLevel::kWarn; return true; }
  if (text == "error") { out = LogLevel::kError; return true; }
  return false;
}

Logger::Logger(LoggerOptions options)
    : options_(options),
      sink_(options.sink != nullptr ? options.sink : &std::cerr),
      tokens_(static_cast<f64>(options.max_events_per_sec)),
      last_refill_ns_(now_ns()) {}

u64 Logger::emitted() const {
  std::lock_guard lock(mu_);
  return emitted_;
}

u64 Logger::suppressed() const {
  std::lock_guard lock(mu_);
  return suppressed_;
}

void Logger::log(LogLevel level, const char* event,
                 std::initializer_list<LogField> fields) {
  if (level < options_.min_level) return;
  const u64 ts = now_ns();

  std::lock_guard lock(mu_);
  const bool limited = options_.max_events_per_sec > 0;
  if (limited) {
    // Refill the bucket from elapsed wall time, capped at one second's
    // worth of burst.
    const f64 rate = static_cast<f64>(options_.max_events_per_sec);
    const u64 elapsed = ts > last_refill_ns_ ? ts - last_refill_ns_ : 0;
    last_refill_ns_ = ts;
    tokens_ = std::min(rate, tokens_ + rate * static_cast<f64>(elapsed) / 1e9);
    if (level != LogLevel::kError && tokens_ < 1.0) {
      ++pending_suppressed_;
      ++suppressed_;
      return;
    }
    if (level != LogLevel::kError) tokens_ -= 1.0;
  }
  if (pending_suppressed_ > 0) {
    const LogField count("count", pending_suppressed_);
    pending_suppressed_ = 0;
    write_record_locked(LogLevel::kWarn, "log.suppressed", &count, 1, ts);
  }
  write_record_locked(level, event, fields.begin(), fields.size(), ts);
}

void Logger::write_record_locked(LogLevel level, const char* event,
                                 const LogField* fields,
                                 std::size_t n_fields, u64 ts) {
  line_.clear();
  line_ += "{\"ts_ns\":";
  line_ += std::to_string(ts);
  line_ += ",\"level\":\"";
  line_ += log_level_name(level);
  line_ += "\",\"event\":";
  append_json_string(line_, event);
  for (std::size_t i = 0; i < n_fields; ++i) {
    const LogField& f = fields[i];
    line_ += ',';
    append_json_string(line_, f.key);
    line_ += ':';
    switch (f.kind) {
      case LogField::Kind::kString:
        append_json_string(line_, f.str.c_str());
        break;
      case LogField::Kind::kInt:
        line_ += std::to_string(f.num_i);
        break;
      case LogField::Kind::kFloat: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", f.num_f);
        line_ += buf;
        break;
      }
    }
  }
  line_ += "}\n";
  sink_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  sink_->flush();
  ++emitted_;
}

}  // namespace ceresz::obs
