#include "obs/analysis/stitch.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "obs/log.h"

namespace ceresz::obs::analysis {

namespace {

u64 arg_u64(const Span& s, const char* key) {
  const i64 v = s.arg_or(key, 0);
  return v < 0 ? 0 : static_cast<u64>(v);
}

std::string fmt_ms(f64 ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", ns * 1e-6);
  return buf;
}

std::string pad(std::string s, std::size_t width) {
  if (s.size() < width) s.resize(width, ' ');
  return s;
}

/// True when `node` or any span below it carries a nonzero trace_id.
bool subtree_tagged(const SpanNode& node) {
  if (arg_u64(*node.span, "trace_id") != 0) return true;
  for (const SpanNode& child : node.children) {
    if (subtree_tagged(child)) return true;
  }
  return false;
}

}  // namespace

f64 request_span_coverage(const TraceData& server) {
  std::set<u32> tids;
  for (const Span& s : server.spans) {
    if (s.pid == kHostPid) tids.insert(s.tid);
  }
  u64 total_ns = 0;
  u64 tagged_ns = 0;
  for (const u32 tid : tids) {
    for (const SpanNode& root : thread_span_tree(server, kHostPid, tid)) {
      total_ns += root.span->dur_ns;
      if (subtree_tagged(root)) tagged_ns += root.span->dur_ns;
    }
  }
  return total_ns == 0
             ? 1.0
             : static_cast<f64>(tagged_ns) / static_cast<f64>(total_ns);
}

StitchReport stitch_traces(const TraceData& client, const TraceData& server) {
  StitchReport report;

  // Server side: request roots keyed by (trace_id, parent_span_id) —
  // the pair the wire carried — and worker-side children keyed by the
  // root span id they inherited through the ambient context.
  std::map<std::pair<u64, u64>, const Span*> roots_by_wire_key;
  std::map<u64, std::vector<const Span*>> children_by_parent;
  for (const Span& s : server.spans) {
    if (s.pid != kHostPid) continue;
    const u64 trace_id = arg_u64(s, "trace_id");
    if (trace_id == 0) continue;
    if (s.name == "server.request") {
      ++report.totals.server_roots;
      const auto key = std::make_pair(trace_id, arg_u64(s, "parent_span_id"));
      // First root wins; a duplicate wire key (a server answering the
      // same attempt twice) would be a protocol bug, not a stitch bug.
      roots_by_wire_key.emplace(key, &s);
    } else {
      const u64 parent = arg_u64(s, "parent_span_id");
      if (parent != 0) children_by_parent[parent].push_back(&s);
    }
  }

  // Client side: logical request roots and their attempt spans.
  std::map<u64, std::vector<const Span*>> attempts_by_parent;
  std::vector<const Span*> request_roots;
  for (const Span& s : client.spans) {
    if (s.pid != kHostPid) continue;
    if (s.name == "client.request") {
      request_roots.push_back(&s);
    } else if (s.name == "client.attempt") {
      const u64 parent = arg_u64(s, "parent_span_id");
      if (parent != 0) attempts_by_parent[parent].push_back(&s);
    }
  }
  std::sort(request_roots.begin(), request_roots.end(),
            [](const Span* a, const Span* b) { return a->ts_ns < b->ts_ns; });

  for (const Span* root : request_roots) {
    StitchedRequest req;
    req.trace_id = arg_u64(*root, "trace_id");
    req.request_id = arg_u64(*root, "request_id");
    req.tenant_id = static_cast<u32>(arg_u64(*root, "tenant_id"));
    req.client_ts_ns = root->ts_ns;
    req.client_dur_ns = root->dur_ns;

    auto it = attempts_by_parent.find(arg_u64(*root, "span_id"));
    if (it != attempts_by_parent.end()) {
      std::sort(it->second.begin(), it->second.end(),
                [](const Span* a, const Span* b) {
                  return a->ts_ns < b->ts_ns;
                });
      for (const Span* a : it->second) {
        StitchedAttempt att;
        att.span_id = arg_u64(*a, "span_id");
        att.attempt = a->arg_or("attempt", 0);
        att.client_ts_ns = a->ts_ns;
        att.client_dur_ns = a->dur_ns;
        const auto match = roots_by_wire_key.find(
            std::make_pair(req.trace_id, att.span_id));
        if (match != roots_by_wire_key.end()) {
          const Span& sroot = *match->second;
          att.matched = true;
          att.server_ts_ns = sroot.ts_ns;
          att.server_dur_ns = sroot.dur_ns;
          att.network_ns = att.client_dur_ns > sroot.dur_ns
                               ? att.client_dur_ns - sroot.dur_ns
                               : 0;
          const auto kids = children_by_parent.find(arg_u64(sroot, "span_id"));
          if (kids != children_by_parent.end()) {
            for (const Span* c : kids->second) {
              if (c->name == "server.queue_wait") {
                att.queue_wait_ns += c->dur_ns;
              } else if (c->name == "server.decode") {
                att.decode_ns += c->dur_ns;
              } else if (c->name == "server.engine") {
                att.engine_ns += c->dur_ns;
              } else if (c->name == "server.encode") {
                att.encode_ns += c->dur_ns;
              } else if (c->name == "server.write") {
                att.write_ns += c->dur_ns;
              }
            }
          }
        }
        req.attempts.push_back(att);
      }
    }
    if (req.attempts.size() > 1) {
      const u64 final_dur = req.attempts.back().client_dur_ns;
      req.retry_overhead_ns = req.client_dur_ns > final_dur
                                  ? req.client_dur_ns - final_dur
                                  : 0;
    }
    report.requests.push_back(std::move(req));
  }

  // Aggregates.
  StitchTotals& t = report.totals;
  t.requests = report.requests.size();
  u64 sum_network = 0, sum_queue = 0, sum_engine = 0, sum_server = 0;
  u64 sum_request = 0, sum_retry = 0;
  for (const StitchedRequest& req : report.requests) {
    sum_request += req.client_dur_ns;
    sum_retry += req.retry_overhead_ns;
    for (const StitchedAttempt& att : req.attempts) {
      ++t.attempts;
      if (!att.matched) continue;
      ++t.matched_attempts;
      sum_network += att.network_ns;
      sum_queue += att.queue_wait_ns;
      sum_engine += att.engine_ns;
      sum_server += att.server_dur_ns;
    }
  }
  t.match_rate = t.attempts == 0 ? 1.0
                                 : static_cast<f64>(t.matched_attempts) /
                                       static_cast<f64>(t.attempts);
  if (t.matched_attempts != 0) {
    const f64 n = static_cast<f64>(t.matched_attempts);
    t.mean_network_ns = static_cast<f64>(sum_network) / n;
    t.mean_queue_wait_ns = static_cast<f64>(sum_queue) / n;
    t.mean_engine_ns = static_cast<f64>(sum_engine) / n;
    t.mean_server_ns = static_cast<f64>(sum_server) / n;
  }
  if (t.requests != 0) {
    const f64 n = static_cast<f64>(t.requests);
    t.mean_request_ns = static_cast<f64>(sum_request) / n;
    t.mean_retry_overhead_ns = static_cast<f64>(sum_retry) / n;
  }
  t.server_coverage = request_span_coverage(server);
  return report;
}

std::string render_stitch_report(const StitchReport& report) {
  const StitchTotals& t = report.totals;
  std::string out;
  out += "stitched service trace (" + std::to_string(t.requests) +
         " requests, " + std::to_string(t.attempts) + " attempts, " +
         std::to_string(t.matched_attempts) + " matched)\n";
  out += pad("trace_id", 16) + pad("request", 9) + pad("tenant", 7) +
         pad("attempts", 9) + pad("total_ms", 10) + pad("network_ms", 11) +
         pad("queue_ms", 9) + pad("engine_ms", 10) + "retry_ms\n";
  constexpr std::size_t kMaxRows = 50;
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    if (i == kMaxRows) {
      out += "... (" + std::to_string(report.requests.size() - kMaxRows) +
             " more)\n";
      break;
    }
    const StitchedRequest& req = report.requests[i];
    u64 network = 0, queue = 0, engine = 0;
    for (const StitchedAttempt& att : req.attempts) {
      network += att.network_ns;
      queue += att.queue_wait_ns;
      engine += att.engine_ns;
    }
    char tid[24];
    std::snprintf(tid, sizeof(tid), "%012llx",
                  static_cast<unsigned long long>(req.trace_id));
    out += pad(tid, 16) + pad(std::to_string(req.request_id), 9) +
           pad(std::to_string(req.tenant_id), 7) +
           pad(std::to_string(req.attempts.size()), 9) +
           pad(fmt_ms(static_cast<f64>(req.client_dur_ns)), 10) +
           pad(fmt_ms(static_cast<f64>(network)), 11) +
           pad(fmt_ms(static_cast<f64>(queue)), 9) +
           pad(fmt_ms(static_cast<f64>(engine)), 10) +
           fmt_ms(static_cast<f64>(req.retry_overhead_ns)) + "\n";
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "match rate %.3f, server span coverage %.3f\n",
                t.match_rate, t.server_coverage);
  out += line;
  std::snprintf(
      line, sizeof(line),
      "mean per matched attempt: network %s ms, queue %s ms, engine %s ms, "
      "server total %s ms\n",
      fmt_ms(t.mean_network_ns).c_str(), fmt_ms(t.mean_queue_wait_ns).c_str(),
      fmt_ms(t.mean_engine_ns).c_str(), fmt_ms(t.mean_server_ns).c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "mean per request: total %s ms, retry overhead %s ms\n",
                fmt_ms(t.mean_request_ns).c_str(),
                fmt_ms(t.mean_retry_overhead_ns).c_str());
  out += line;
  return out;
}

std::vector<HistoryRecord> stitch_history_records(const StitchReport& report) {
  const StitchTotals& t = report.totals;
  std::vector<HistoryRecord> out;
  auto add = [&](const char* metric, f64 value, const char* unit,
                 const char* better, f64 noise) {
    HistoryRecord r;
    r.bench = "service_trace";
    r.metric = metric;
    r.value = value;
    r.unit = unit;
    r.better = better;
    r.noise = noise;
    out.push_back(std::move(r));
  };
  // Structural metrics are deterministic — tight bands. The timing
  // means are wall clock on a shared runner — generous bands.
  add("match_rate", t.match_rate, "ratio", "higher", 0.01);
  add("server_span_coverage", t.server_coverage, "ratio", "higher", 0.05);
  if (t.matched_attempts != 0) {
    add("mean_network_ms", t.mean_network_ns * 1e-6, "ms", "lower", 1.0);
    add("mean_queue_wait_ms", t.mean_queue_wait_ns * 1e-6, "ms", "lower",
        1.0);
    add("mean_engine_ms", t.mean_engine_ns * 1e-6, "ms", "lower", 1.0);
  }
  return out;
}

namespace {

void append_span_event(std::string& out, const Span& s, u32 pid,
                       i64 shift_ns, bool& first) {
  if (!first) out += ",\n";
  first = false;
  const i64 ts = static_cast<i64>(s.ts_ns) + shift_ns;
  char buf[160];
  out += "{\"name\": ";
  append_json_string(out, s.name);
  out += ", \"cat\": ";
  append_json_string(out, s.cat.empty() ? std::string("trace") : s.cat);
  std::snprintf(buf, sizeof(buf),
                ", \"ph\": \"%c\", \"pid\": %u, \"tid\": %u, \"ts\": %.3f",
                s.phase, pid, s.tid,
                static_cast<f64>(ts < 0 ? 0 : ts) / 1000.0);
  out += buf;
  if (s.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f",
                  static_cast<f64>(s.dur_ns) / 1000.0);
    out += buf;
  }
  if (!s.args.empty()) {
    out += ", \"args\": {";
    bool first_arg = true;
    for (const auto& [k, v] : s.args) {
      if (!first_arg) out += ", ";
      first_arg = false;
      append_json_string(out, k);
      std::snprintf(buf, sizeof(buf), ": %lld",
                    static_cast<long long>(v));
      out += buf;
    }
    out += '}';
  }
  out += '}';
}

void append_meta_event(std::string& out, const char* what, u32 pid, u32 tid,
                       const std::string& name, bool with_tid, bool& first) {
  if (!first) out += ",\n";
  first = false;
  char buf[96];
  out += "{\"name\": \"";
  out += what;
  out += "\", \"ph\": \"M\", \"pid\": ";
  out += std::to_string(pid);
  if (with_tid) {
    std::snprintf(buf, sizeof(buf), ", \"tid\": %u", tid);
    out += buf;
  }
  out += ", \"args\": {\"name\": ";
  append_json_string(out, name);
  out += "}}";
}

}  // namespace

std::string merged_chrome_trace_json(const TraceData& client,
                                     const TraceData& server,
                                     const StitchReport& report) {
  constexpr u32 kClientPid = kHostPid;  // 1, as recorded
  constexpr u32 kServerPid = 3;         // past kFabricPid

  // Align the server clock to the client clock with the median midpoint
  // offset over matched (attempt, server root) pairs. With no matches
  // the server timeline starts at 0 unshifted.
  std::vector<i64> offsets;
  for (const StitchedRequest& req : report.requests) {
    for (const StitchedAttempt& att : req.attempts) {
      if (!att.matched) continue;
      const i64 client_mid =
          static_cast<i64>(att.client_ts_ns + att.client_dur_ns / 2);
      const i64 server_mid =
          static_cast<i64>(att.server_ts_ns + att.server_dur_ns / 2);
      offsets.push_back(client_mid - server_mid);
    }
  }
  i64 shift = 0;
  if (!offsets.empty()) {
    std::sort(offsets.begin(), offsets.end());
    shift = offsets[offsets.size() / 2];
  }

  std::string out = "{\n\"traceEvents\": [\n";
  bool first = true;
  append_meta_event(out, "process_name", kClientPid, 0, "ceresz_client",
                    false, first);
  append_meta_event(out, "process_name", kServerPid, 0, "ceresz_server",
                    false, first);
  for (const auto& [key, name] : client.thread_names) {
    if (key.first != kHostPid) continue;
    append_meta_event(out, "thread_name", kClientPid, key.second, name, true,
                      first);
  }
  for (const auto& [key, name] : server.thread_names) {
    if (key.first != kHostPid) continue;
    append_meta_event(out, "thread_name", kServerPid, key.second, name, true,
                      first);
  }
  // Host events only: the fabric's virtual-cycle clock has no meaning
  // on the stitched wall-clock timeline.
  for (const Span& s : client.spans) {
    if (s.pid == kHostPid) append_span_event(out, s, kClientPid, 0, first);
  }
  for (const Span& s : client.instants) {
    if (s.pid == kHostPid) append_span_event(out, s, kClientPid, 0, first);
  }
  for (const Span& s : server.spans) {
    if (s.pid == kHostPid) {
      append_span_event(out, s, kServerPid, shift, first);
    }
  }
  for (const Span& s : server.instants) {
    if (s.pid == kHostPid) {
      append_span_event(out, s, kServerPid, shift, first);
    }
  }
  out += "\n],\n\"metadata\": {\"stitched\": 1, \"matched_attempts\": " +
         std::to_string(report.totals.matched_attempts) + "}\n}\n";
  return out;
}

}  // namespace ceresz::obs::analysis
