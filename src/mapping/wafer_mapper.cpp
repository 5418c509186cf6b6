#include "mapping/wafer_mapper.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "mapping/perf_model.h"
#include "mapping/pipeline_program.h"
#include "obs/analysis/model_check.h"
#include "wse/wafer_sim.h"

namespace ceresz::mapping {

namespace {

/// Tags at or above this mark padding blocks (appended so every row's
/// stream is a whole number of rounds); their results are discarded.
constexpr u64 kPadTagBase = u64{1} << 63;

/// One surviving row of the (possibly degraded) placement.
struct RowSlot {
  u32 row = 0;          ///< fabric row index
  u32 n_pipes = 1;      ///< pipelines this row still runs
  u32 usable_cols = 0;  ///< columns west of the row's first dead PE
};

/// The fault-aware placement: which rows carry blocks and how wide each
/// still is, plus the degradation bookkeeping reported to the caller.
struct DegradedLayout {
  std::vector<RowSlot> slots;
  u32 stride = 0;  ///< round-robin bins blocks are dealt into
  u32 rows_failed = 0;
  u32 pipelines_lost = 0;
  bool degraded = false;
};

/// Re-run the placement on the surviving mesh: a row survives iff at
/// least one whole pipeline fits west of its first dead PE; surviving
/// rows absorb the failed rows' block share (stride shrinks to the
/// survivor count, so every block still lands somewhere).
DegradedLayout plan_layout(const MapperOptions& opt, u32 rows_sim, u32 pl,
                           bool extrapolated) {
  const bool faulted = !opt.fault_plan.empty();
  CERESZ_CHECK(!(faulted && extrapolated),
               "WaferMapper: fault-aware mapping requires exact simulation "
               "of every row (raise max_exact_rows or shrink the mesh)");
  const u32 nominal_pipes = opt.cols / pl;
  DegradedLayout layout;
  for (u32 r = 0; r < rows_sim; ++r) {
    u32 usable = opt.cols;
    if (const auto dead = opt.fault_plan.first_dead_col(r)) {
      usable = std::min(usable, *dead);
    }
    const u32 pipes = usable / pl;
    if (pipes == 0) {
      ++layout.rows_failed;
      layout.pipelines_lost += nominal_pipes;
      continue;
    }
    layout.pipelines_lost += nominal_pipes - pipes;
    layout.slots.push_back({r, pipes, usable});
  }
  CERESZ_CHECK(!layout.slots.empty(),
               "WaferMapper: the fault plan leaves no usable rows");
  layout.degraded = layout.rows_failed > 0 || layout.pipelines_lost > 0;
  layout.stride = faulted ? static_cast<u32>(layout.slots.size()) : opt.rows;
  return layout;
}

struct RowAssignment {
  std::vector<std::vector<RowBlock>> per_row;  // one entry per slot
  u64 padded_blocks = 0;
};

/// Deal blocks round-robin into `layout.stride` bins, materializing one
/// bin per surviving slot (extrapolation materializes only the simulated
/// rows of a larger healthy mesh); pad each to a multiple of the slot's
/// pipeline count.
template <typename MakeBlock>
RowAssignment assign_blocks(u64 n_blocks, const DegradedLayout& layout,
                            MakeBlock&& make_block, RowBlock pad_template) {
  RowAssignment a;
  a.per_row.resize(layout.slots.size());
  for (std::size_t s = 0; s < layout.slots.size(); ++s) {
    auto& list = a.per_row[s];
    for (u64 b = s; b < n_blocks; b += layout.stride) {
      list.push_back(make_block(b));
    }
    u64 pad_tag = kPadTagBase + s;
    while (list.size() % layout.slots[s].n_pipes != 0) {
      RowBlock pad = pad_template;
      pad.tag = pad_tag;
      pad_tag += layout.slots.size();
      // Each padding block needs its own work state.
      pad.work = std::make_shared<BlockWork>(*pad_template.work);
      list.push_back(std::move(pad));
      ++a.padded_blocks;
    }
  }
  return a;
}

/// Sub-stage family label used in enriched trace thread names and in
/// the analysis layer's bottleneck attribution. Single token (no
/// spaces, ':' or '+' — those are the stages= list's separators), with
/// all bit planes of a (un)shuffle folded into one family.
const char* stage_label(core::SubStageKind kind) {
  switch (kind) {
    case core::SubStageKind::kPrequantMul: return "Multiplication";
    case core::SubStageKind::kPrequantAdd: return "Addition";
    case core::SubStageKind::kLorenzo: return "Lorenzo";
    case core::SubStageKind::kSign: return "Sign";
    case core::SubStageKind::kMax: return "Max";
    case core::SubStageKind::kGetLength: return "GetLength";
    case core::SubStageKind::kShuffleBit: return "Bitshuffle";
    case core::SubStageKind::kUnshuffleBit: return "Unshuffle";
    case core::SubStageKind::kPrefixSum: return "PrefixSum";
    case core::SubStageKind::kDequantMul: return "Dequantization";
  }
  return "Unknown";
}

/// Overwrite the fabric's plain `pe[r,c]` thread names with the
/// schedule: `pe[r,c] pipe=P stage=G stages=<label>:<cycles>+...`.
/// This makes an exported trace self-describing — the analysis layer
/// (obs/analysis/trace_analysis.h) re-derives stage attribution from
/// the names alone, with no dependency on the mapper.
void enrich_thread_names(const MapperOptions& opt,
                         const DegradedLayout& layout,
                         const PipelinePlan& plan, u32 block_size) {
  if (!opt.tracer) return;
  const u32 pl = plan.length();
  for (const RowSlot& slot : layout.slots) {
    for (u32 p = 0; p < slot.n_pipes; ++p) {
      for (u32 g = 0; g < pl; ++g) {
        const u32 c = p * pl + g;
        // Aggregate the group's sub-stages by family, keeping order.
        std::vector<std::pair<const char*, f64>> shares;
        for (const core::SubStage& st : plan.groups[g].stages) {
          const char* label = stage_label(st.kind);
          const f64 cycles =
              static_cast<f64>(opt.cost.substage_cycles(st, block_size));
          if (!shares.empty() && shares.back().first == label) {
            shares.back().second += cycles;
          } else {
            shares.emplace_back(label, cycles);
          }
        }
        std::string name = "pe[" + std::to_string(slot.row) + "," +
                           std::to_string(c) + "] pipe=" +
                           std::to_string(p) + " stage=" +
                           std::to_string(g) + " stages=";
        for (std::size_t i = 0; i < shares.size(); ++i) {
          if (i > 0) name += '+';
          char cyc[32];
          std::snprintf(cyc, sizeof(cyc), "%.1f", shares[i].second);
          name += shares[i].first;
          name += ':';
          name += cyc;
        }
        opt.tracer->set_thread_name(obs::kFabricPid,
                                    slot.row * opt.cols + c + 1,
                                    std::move(name));
      }
    }
  }
}

/// Export the analytic cost-model terms as gauges so a metrics file is
/// self-sufficient for measured-vs-predicted validation (the gauge
/// names live in obs/analysis/model_check.h). The prediction targets
/// the narrowest surviving row — the one that governs the makespan.
void export_predictions(obs::MetricsRegistry* reg, const MapperOptions& opt,
                        const DegradedLayout& layout,
                        const PipelinePlan& plan, u64 n_blocks,
                        u32 block_extent, u32 block_bytes) {
  if (!reg) return;
  u32 min_pipes = layout.slots.front().n_pipes;
  for (const RowSlot& slot : layout.slots) {
    min_pipes = std::min(min_pipes, slot.n_pipes);
  }
  const PerfModel model(opt.wse);
  const PerfPrediction p = model.predict_degraded(
      plan, layout.stride, min_pipes, n_blocks, block_extent, block_bytes);

  namespace oa = obs::analysis;
  reg->gauge(oa::kGaugeMeshRows).set(static_cast<f64>(opt.rows));
  reg->gauge(oa::kGaugeMeshCols).set(static_cast<f64>(opt.cols));
  reg->gauge(oa::kGaugePipelineLength).set(static_cast<f64>(plan.length()));
  reg->gauge(oa::kGaugePipelinesPerRow).set(static_cast<f64>(min_pipes));
  reg->gauge(oa::kGaugePredictedC1).set(static_cast<f64>(p.c1));
  reg->gauge(oa::kGaugePredictedC2).set(static_cast<f64>(p.c2));
  reg->gauge(oa::kGaugePredictedRelayPerRound)
      .set(static_cast<f64>(p.relay_cycles_per_round));
  reg->gauge(oa::kGaugePredictedRecvPerRound)
      .set(static_cast<f64>(p.recv_cycles_per_round));
  reg->gauge(oa::kGaugePredictedComputeTask)
      .set(static_cast<f64>(opt.wse.task_overhead_cycles +
                            plan.bottleneck_cycles()));
  reg->gauge(oa::kGaugePredictedRoundCycles)
      .set(static_cast<f64>(p.round_cycles));
  reg->gauge(oa::kGaugePredictedTotalCycles)
      .set(static_cast<f64>(p.total_cycles));
  reg->gauge(oa::kGaugePredictedRounds).set(static_cast<f64>(p.rounds));
}

/// The parallel simulator configured for this run's mesh: row bands
/// share the full fault plan (global coordinates), observability sinks,
/// and optionally the caller's worker pool.
wse::WaferSimOptions sim_options(const MapperOptions& opt, u32 rows_sim) {
  wse::WaferSimOptions sopt;
  sopt.wse = opt.wse;
  sopt.wse.rows = rows_sim;
  sopt.wse.cols = opt.cols;
  sopt.sim_threads = opt.sim_threads;
  sopt.rows_per_group = opt.sim_rows_per_group;
  sopt.fault_plan = opt.fault_plan;
  sopt.tracer = opt.tracer;
  sopt.metrics = opt.metrics;
  sopt.pool = opt.sim_pool;
  return sopt;
}

/// Fold a finished run into the caller's long-lived registry.
void record_mapper_metrics(obs::MetricsRegistry* reg,
                           const WaferRunResult& result) {
  if (!reg) return;
  reg->counter(kMetricMapperRuns).add(1);
  reg->counter(kMetricMapperBlocks).add(result.total_blocks);
  reg->counter(kMetricMapperPaddedBlocks).add(result.padded_blocks);
  reg->counter(kMetricMapperRowsFailed).add(result.rows_failed);
  reg->counter(kMetricMapperPipelinesLost).add(result.pipelines_lost);
  reg->gauge(kMetricMapperMakespan).set(static_cast<f64>(result.makespan));
  reg->gauge(kMetricMapperThroughput).set(result.throughput_gbps);
}

}  // namespace

void declare_mapper_metrics(obs::MetricsRegistry& reg) {
  reg.counter(kMetricMapperRuns);
  reg.counter(kMetricMapperBlocks);
  reg.counter(kMetricMapperPaddedBlocks);
  reg.counter(kMetricMapperRowsFailed);
  reg.counter(kMetricMapperPipelinesLost);
  reg.gauge(kMetricMapperMakespan);
  reg.gauge(kMetricMapperThroughput);
  namespace oa = obs::analysis;
  reg.gauge(oa::kGaugeMeshRows);
  reg.gauge(oa::kGaugeMeshCols);
  reg.gauge(oa::kGaugePipelineLength);
  reg.gauge(oa::kGaugePipelinesPerRow);
  reg.gauge(oa::kGaugePredictedC1);
  reg.gauge(oa::kGaugePredictedC2);
  reg.gauge(oa::kGaugePredictedRelayPerRound);
  reg.gauge(oa::kGaugePredictedRecvPerRound);
  reg.gauge(oa::kGaugePredictedComputeTask);
  reg.gauge(oa::kGaugePredictedRoundCycles);
  reg.gauge(oa::kGaugePredictedTotalCycles);
  reg.gauge(oa::kGaugePredictedRounds);
}

WaferMapper::WaferMapper(MapperOptions options) : options_(options) {
  options_.codec.validate();
  CERESZ_CHECK(!options_.codec.constant_block_shortcut,
               "WaferMapper: the constant-block extension is host-codec "
               "only; the wafer mapping implements the paper's format");
  CERESZ_CHECK(options_.rows >= 1 && options_.cols >= 1,
               "WaferMapper: mesh must be at least 1x1");
  CERESZ_CHECK(options_.pipeline_length >= 1 &&
                   options_.pipeline_length <= options_.cols,
               "WaferMapper: pipeline length must fit within the row");
  CERESZ_CHECK(options_.max_exact_rows >= 1,
               "WaferMapper: max_exact_rows must be at least 1");
}

WaferRunResult WaferMapper::compress(std::span<const f32> data,
                                     core::ErrorBound bound) const {
  const u32 L = options_.codec.block_size;
  CERESZ_CHECK(!data.empty(), "WaferMapper::compress: empty input");

  WaferRunResult result;
  obs::SpanGuard run_span(options_.tracer, "mapper.compress", "mapper",
                          "elements", static_cast<i64>(data.size()));

  // 1. Profile + schedule.
  {
    obs::SpanGuard span(options_.tracer, "mapper.profile", "mapper");
    StageProfiler profiler(options_.codec, options_.cost,
                           options_.sample_fraction);
    result.profile = profiler.profile(data, bound);
  }
  result.eps_abs = result.profile.eps_abs;
  {
    obs::SpanGuard span(options_.tracer, "mapper.schedule", "mapper");
    GreedyScheduler scheduler(options_.cost, L);
    const auto substages =
        core::compression_substages(result.profile.est_fixed_length);
    if (options_.plan_for_sram) {
      result.plan = plan_with_sram(scheduler, substages, L,
                                   PipeDirection::kCompress,
                                   options_.wse.sram_bytes);
      CERESZ_CHECK(result.plan.length() <= options_.cols,
                   "WaferMapper: SRAM-driven pipeline longer than the row");
    } else {
      result.plan = scheduler.distribute(substages, options_.pipeline_length);
    }
  }

  // 2. Row assignment.
  const u64 assign_start =
      options_.tracer ? options_.tracer->now_rel_ns() : 0;
  const u64 n_blocks = (data.size() + L - 1) / L;
  result.total_blocks = n_blocks;
  const u32 n_pipes = options_.cols / result.plan.length();
  result.pipelines_per_row = n_pipes;
  result.extrapolated = options_.rows > options_.max_exact_rows;
  result.rows_simulated =
      result.extrapolated ? options_.max_exact_rows : options_.rows;
  const DegradedLayout layout = plan_layout(options_, result.rows_simulated,
                                            result.plan.length(),
                                            result.extrapolated);
  result.degraded = layout.degraded;
  result.rows_failed = layout.rows_failed;
  result.pipelines_lost = layout.pipelines_lost;

  auto make_block = [&](u64 b) {
    RowBlock rb;
    rb.extent = L;
    rb.tag = b;
    rb.work = std::make_shared<BlockWork>();
    rb.work->input.assign(L, 0.0f);
    const u64 begin = b * L;
    const u64 count = std::min<u64>(L, data.size() - begin);
    std::copy_n(data.data() + begin, count, rb.work->input.begin());
    return rb;
  };
  RowBlock pad_template;
  pad_template.extent = L;
  pad_template.work = std::make_shared<BlockWork>();
  pad_template.work->input.assign(L, 0.0f);

  RowAssignment assignment =
      assign_blocks(n_blocks, layout, make_block, pad_template);
  result.padded_blocks = assignment.padded_blocks;
  if (options_.tracer) {
    obs::TraceEvent ev;
    ev.name = "mapper.assign";
    ev.cat = "mapper";
    ev.ts_ns = assign_start;
    ev.dur_ns = options_.tracer->now_rel_ns() - assign_start;
    ev.arg1_name = "blocks";
    ev.arg1 = static_cast<i64>(n_blocks);
    options_.tracer->record(ev);
  }

  // 3. Build and run the parallel simulator (one band per row by
  // default; bands execute concurrently on sim_threads / sim_pool).
  wse::WaferSimulator sim(sim_options(options_, result.rows_simulated));
  const wse::WseConfig& wcfg = sim.options().wse;
  auto executor = std::make_shared<const SubStageExecutor>(
      options_.codec, options_.cost, result.eps_abs);
  for (std::size_t s = 0; s < layout.slots.size(); ++s) {
    build_row_program(sim.fabric_for_row(layout.slots[s].row),
                      layout.slots[s].row, result.plan,
                      PipeDirection::kCompress, executor,
                      std::move(assignment.per_row[s]),
                      options_.ingress_cycles_per_wavelet,
                      layout.slots[s].usable_cols);
  }
  {
    obs::SpanGuard span(options_.tracer, "mapper.fabric_run", "mapper");
    result.run_stats = sim.run();
  }
  enrich_thread_names(options_, layout, result.plan, L);
  export_predictions(options_.metrics, options_, layout, result.plan,
                     n_blocks, L, L * sizeof(f32));
  result.makespan = result.run_stats.makespan;
  result.seconds = wcfg.seconds(result.makespan);
  result.throughput_gbps =
      static_cast<f64>(data.size() * sizeof(f32)) / result.seconds / 1.0e9;

  result.row0_stats.reserve(options_.cols);
  for (u32 c = 0; c < options_.cols; ++c) {
    result.row0_stats.push_back(sim.stats(0, c));
  }

  // 4. Assemble the stream (exact mode only: every block was simulated).
  if (options_.collect_output && !result.extrapolated) {
    obs::SpanGuard span(options_.tracer, "mapper.assemble", "mapper");
    std::vector<std::span<const u8>> records(n_blocks);
    for (const auto& rec : sim.results()) {
      if (rec.tag >= kPadTagBase) continue;
      records[rec.tag] = rec.bytes;
    }
    auto& out = result.stream;
    out.reserve(core::StreamCodec::header_size() + n_blocks * 8);
    core::StreamCodec(options_.codec)
        .write_header({data.size(), result.eps_abs}, out);
    for (u64 b = 0; b < n_blocks; ++b) {
      CERESZ_CHECK(!records[b].empty(),
                   "WaferMapper: block never emerged from the wafer");
      out.insert(out.end(), records[b].begin(), records[b].end());
    }
  }
  record_mapper_metrics(options_.metrics, result);
  return result;
}

WaferRunResult WaferMapper::decompress(std::span<const u8> stream) const {
  const u32 L = options_.codec.block_size;
  const core::StreamCodec codec(options_.codec);
  const auto [element_count, eps_abs] = codec.parse_header(stream);

  WaferRunResult result;
  obs::SpanGuard run_span(options_.tracer, "mapper.decompress", "mapper",
                          "bytes", static_cast<i64>(stream.size()));
  result.eps_abs = eps_abs;
  const u64 n_blocks = (element_count + L - 1) / L;
  result.total_blocks = n_blocks;

  // Index the block records and find the stream's maximum fixed length
  // (known up front on a real deployment — it is what the decompression
  // pipeline is scheduled for).
  const core::BlockCodec& bc = codec.block_codec();
  const std::span<const u8> payload =
      stream.subspan(core::StreamCodec::header_size());
  std::vector<std::span<const u8>> records;
  u32 max_fl = 1;
  {
    obs::SpanGuard span(options_.tracer, "mapper.profile", "mapper");
    records = bc.split_records(payload, n_blocks);
    for (const auto& record : records) {
      max_fl = std::max(max_fl, bc.read_header(record));
    }
  }
  CERESZ_CHECK(n_blocks > 0, "WaferMapper::decompress: empty stream");

  result.profile.eps_abs = eps_abs;
  result.profile.est_fixed_length = max_fl;
  result.profile.decompress_cycles =
      options_.cost.decompress_block_cycles(L, max_fl, false);

  {
    obs::SpanGuard span(options_.tracer, "mapper.schedule", "mapper");
    GreedyScheduler scheduler(options_.cost, L);
    const auto substages = core::decompression_substages(max_fl);
    if (options_.plan_for_sram) {
      result.plan = plan_with_sram(scheduler, substages, L,
                                   PipeDirection::kDecompress,
                                   options_.wse.sram_bytes);
      CERESZ_CHECK(result.plan.length() <= options_.cols,
                   "WaferMapper: SRAM-driven pipeline longer than the row");
    } else {
      result.plan = scheduler.distribute(substages, options_.pipeline_length);
    }
  }

  const u64 assign_start =
      options_.tracer ? options_.tracer->now_rel_ns() : 0;
  const u32 n_pipes = options_.cols / result.plan.length();
  result.pipelines_per_row = n_pipes;
  result.extrapolated = options_.rows > options_.max_exact_rows;
  result.rows_simulated =
      result.extrapolated ? options_.max_exact_rows : options_.rows;
  const DegradedLayout layout = plan_layout(options_, result.rows_simulated,
                                            result.plan.length(),
                                            result.extrapolated);
  result.degraded = layout.degraded;
  result.rows_failed = layout.rows_failed;
  result.pipelines_lost = layout.pipelines_lost;

  auto make_block = [&](u64 b) {
    RowBlock rb;
    rb.tag = b;
    rb.work = std::make_shared<BlockWork>();
    rb.work->record.assign(records[b].begin(), records[b].end());
    rb.extent = std::max<u32>(
        1, static_cast<u32>((rb.work->record.size() + 3) / 4));
    return rb;
  };
  RowBlock pad_template;
  pad_template.work = std::make_shared<BlockWork>();
  // A zero-block record: header of fl = 0.
  pad_template.work->record.assign(options_.codec.header_bytes, 0);
  pad_template.extent = 1;

  RowAssignment assignment =
      assign_blocks(n_blocks, layout, make_block, pad_template);
  result.padded_blocks = assignment.padded_blocks;
  if (options_.tracer) {
    obs::TraceEvent ev;
    ev.name = "mapper.assign";
    ev.cat = "mapper";
    ev.ts_ns = assign_start;
    ev.dur_ns = options_.tracer->now_rel_ns() - assign_start;
    ev.arg1_name = "blocks";
    ev.arg1 = static_cast<i64>(n_blocks);
    options_.tracer->record(ev);
  }

  wse::WaferSimulator sim(sim_options(options_, result.rows_simulated));
  const wse::WseConfig& wcfg = sim.options().wse;
  auto executor = std::make_shared<const SubStageExecutor>(
      options_.codec, options_.cost, eps_abs);
  for (std::size_t s = 0; s < layout.slots.size(); ++s) {
    build_row_program(sim.fabric_for_row(layout.slots[s].row),
                      layout.slots[s].row, result.plan,
                      PipeDirection::kDecompress, executor,
                      std::move(assignment.per_row[s]),
                      options_.ingress_cycles_per_wavelet,
                      layout.slots[s].usable_cols);
  }
  {
    obs::SpanGuard span(options_.tracer, "mapper.fabric_run", "mapper");
    result.run_stats = sim.run();
  }
  enrich_thread_names(options_, layout, result.plan, L);
  {
    // Record extents vary per block; predict with the mean wavelet count.
    const u32 avg_extent = std::max<u32>(
        1, static_cast<u32>((payload.size() / n_blocks + 3) / 4));
    export_predictions(options_.metrics, options_, layout, result.plan,
                       n_blocks, avg_extent, L * sizeof(f32));
  }
  result.makespan = result.run_stats.makespan;
  result.seconds = wcfg.seconds(result.makespan);
  // Decompression throughput is measured against the original data size
  // (Section 5.1.4: Size_ori / T).
  result.throughput_gbps =
      static_cast<f64>(element_count * sizeof(f32)) / result.seconds / 1.0e9;

  result.row0_stats.reserve(options_.cols);
  for (u32 c = 0; c < options_.cols; ++c) {
    result.row0_stats.push_back(sim.stats(0, c));
  }

  if (options_.collect_output && !result.extrapolated) {
    obs::SpanGuard span(options_.tracer, "mapper.assemble", "mapper");
    result.output.assign(n_blocks * L, 0.0f);
    for (const auto& rec : sim.results()) {
      if (rec.tag >= kPadTagBase) continue;
      CERESZ_CHECK(rec.bytes.size() == L * sizeof(f32),
                   "WaferMapper: bad reconstructed block size");
      std::memcpy(result.output.data() + rec.tag * L, rec.bytes.data(),
                  rec.bytes.size());
    }
    result.output.resize(element_count);
  }
  record_mapper_metrics(options_.metrics, result);
  return result;
}

}  // namespace ceresz::mapping
