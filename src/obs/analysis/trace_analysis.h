// Trace analytics: turn the Tracer's span stream (in-memory or an
// exported Chrome trace file) into the paper's performance views —
//
//  - a span tree per (pid, tid) with self-time accounting;
//  - per-PE occupancy attribution on the fabric's virtual-cycle clock
//    (Fig. 10): each PE's makespan is partitioned into compute / relay /
//    recv / send so the fractions always sum to <= 1.0, even where the
//    simulator overlaps asynchronous ops with task execution;
//  - pipeline bottleneck extraction: the stage PE each pipeline spends
//    the most compute time on (the quantity Algorithm 1's greedy
//    partitioner minimizes), named down to the dominant sub-stage.
//
// Stage attribution rides on the trace itself: the mapper enriches the
// fabric's per-PE thread names with `pipe=<p> stage=<g>
// stages=<Name>:<cycles>+...` (see WaferMapper), so an exported file is
// self-describing — no side channel needed to re-derive who ran what.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"

namespace ceresz::obs::analysis {

/// One parsed trace span or event with owned strings (TraceEvent keeps
/// only static `const char*` names; file-loaded events need storage).
struct Span {
  std::string name;
  std::string cat;
  char phase = 'X';
  u32 pid = kHostPid;
  u32 tid = 0;
  u64 ts_ns = 0;
  u64 dur_ns = 0;
  std::map<std::string, i64> args;

  u64 end_ns() const { return ts_ns + dur_ns; }
  i64 arg_or(const std::string& key, i64 fallback) const {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  }
};

/// A whole trace: spans plus the viewer metadata (process/thread names).
struct TraceData {
  std::vector<Span> spans;     ///< 'X' events, ts-sorted
  std::vector<Span> instants;  ///< 'i' and 'C' events
  std::map<u32, std::string> process_names;
  std::map<std::pair<u32, u32>, std::string> thread_names;
  u64 dropped_events = 0;

  const std::string* thread_name(u32 pid, u32 tid) const;
};

/// Parse an exported Chrome trace-event JSON document (the "JSON object
/// format" obs::Tracer writes). Throws ceresz::Error on malformed input.
TraceData load_chrome_trace(std::string_view json_text);

/// Snapshot a tracer (safe while it records, as
/// Tracer::snapshot_events() is).
TraceData from_tracer(const Tracer& tracer);

// ---------------------------------------------------------------------------
// Span trees.

/// One node of a per-thread span tree: a span plus the spans it fully
/// encloses in time, with `self_ns` = duration not covered by children.
struct SpanNode {
  const Span* span = nullptr;
  u64 self_ns = 0;
  std::vector<SpanNode> children;
};

/// Nest one thread's spans by time containment (a span becomes a child of
/// the innermost span that encloses it). `spans` may be any subset of one
/// thread's spans; ordering is normalized internally.
std::vector<SpanNode> build_span_tree(std::vector<const Span*> spans);

/// All spans of one (pid, tid), tree-ified.
std::vector<SpanNode> thread_span_tree(const TraceData& trace, u32 pid,
                                       u32 tid);

// ---------------------------------------------------------------------------
// Fabric occupancy (Fig. 10).

/// The raw-relay dispatch task color of the CereSZ wafer program
/// (mapping::colors::kRelayTask). Task spans carrying this color are
/// relay work, not compute, and are attributed accordingly.
inline constexpr i64 kDefaultRelayTaskColor = 10;

/// The fabric's virtual-clock scale (wse::kTraceNsPerCycle, restated
/// here so the analysis layer stays independent of the simulator):
/// 1 simulated cycle == 1 us of trace time == 1000 ns.
inline constexpr u64 kTraceNsPerCycle = 1000;

/// Modeled cost of one sub-stage family on one PE, parsed from the
/// mapper-enriched thread name.
struct StageShare {
  std::string name;   ///< e.g. "Multiplication", "Bitshuffle"
  f64 cycles = 0.0;   ///< modeled cycles per block
};

/// Identity and schedule position of one fabric PE, parsed from its
/// thread name (`pe[r,c] pipe=P stage=G stages=...`). pipe/stage are -1
/// when the mapper did not enrich the name (e.g. a raw Fabric user).
struct PeIdentity {
  u32 tid = 0;
  u32 row = 0;
  u32 col = 0;
  i32 pipe = -1;
  i32 stage_pos = -1;
  std::vector<StageShare> stages;
};

/// Parse a fabric thread name. Returns nullopt when the name does not
/// start with the `pe[r,c]` convention.
std::optional<PeIdentity> parse_pe_thread_name(const std::string& name);

/// Per-PE activity attribution over the run's makespan. The four
/// fractions are a partition of the PE's *occupied* time (overlapping
/// spans resolved by priority compute > relay > recv > send), so
/// compute_frac + relay_frac + recv_frac + send_frac <= 1.0 always.
struct PeOccupancy {
  PeIdentity pe;
  f64 compute_frac = 0.0;
  f64 relay_frac = 0.0;
  f64 recv_frac = 0.0;
  f64 send_frac = 0.0;
  f64 busy_frac = 0.0;  ///< union of all four (== their sum)

  // Raw totals (virtual-clock ns; divide by kTraceNsPerCycle for
  // cycles). Unlike the fractions these sum overlapping spans at face
  // value — the right quantity for cost-model comparison.
  u64 compute_ns = 0;
  u64 relay_ns = 0;   ///< relay ops + relay-dispatch task spans
  u64 recv_ns = 0;
  u64 send_ns = 0;
  u64 compute_tasks = 0;  ///< blocks computed (compute task spans)
  u64 recv_ops = 0;       ///< blocks ingested (recv op spans)
  u64 relay_ops = 0;      ///< blocks forwarded (relay op spans)
};

struct FabricOccupancy {
  u64 makespan_ns = 0;  ///< last fabric span end (virtual clock)
  std::vector<PeOccupancy> pes;  ///< ordered by (row, col)

  const PeOccupancy* find(u32 row, u32 col) const;
};

/// Attribute every fabric-pid span to its PE. `relay_task_color`
/// identifies relay-dispatch task spans by their "color" arg.
FabricOccupancy fabric_occupancy(
    const TraceData& trace, i64 relay_task_color = kDefaultRelayTaskColor);

// ---------------------------------------------------------------------------
// Pipeline bottlenecks.

/// The critical stage of one pipeline: the PE (= stage group) with the
/// largest total compute time, and the dominant sub-stage inside it.
struct PipelineBottleneck {
  u32 row = 0;
  u32 pipe = 0;
  u32 col = 0;            ///< bottleneck PE's column
  u32 stage_pos = 0;      ///< its position within the pipeline
  f64 compute_frac = 0.0; ///< its compute occupancy of the makespan
  f64 cycles_per_block = 0.0;  ///< measured compute cycles per block
  std::string stage_group;     ///< "Lorenzo+Sign+Max"
  std::string bottleneck_substage;  ///< longest modeled sub-stage
  f64 substage_cycles = 0.0;        ///< its modeled cycles per block
};

/// One entry per (row, pipeline) found in the occupancy. Requires
/// mapper-enriched thread names (PEs with pipe < 0 are skipped).
std::vector<PipelineBottleneck> pipeline_bottlenecks(
    const FabricOccupancy& occ);

}  // namespace ceresz::obs::analysis
