// Chaos suite: drives the fault-injection and fault-tolerance layer across
// all three tiers — the WSE fabric (dead/slow PEs, dropped and corrupted
// bursts), the wafer mapper (routing around dead PEs, degraded placement),
// and the host engine (retries, crashes, deadlines, quarantine). Every
// fault schedule is fixed-seed and explicit, so each run observes the
// same faults; the headline assertions are that output bytes are
// identical to the fault-free run whenever the faults are recoverable,
// and that unrecoverable ones surface as structured ceresz::Error —
// never a crash or a hang.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/stream_codec.h"
#include "engine/parallel_engine.h"
#include "io/chunk_container.h"
#include "mapping/report.h"
#include "mapping/wafer_mapper.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "wse/fabric.h"
#include "wse/fault_plan.h"

namespace ceresz {
namespace {

// ---------------------------------------------------------------------
// WSE fabric layer
// ---------------------------------------------------------------------

wse::WseConfig small_mesh(u32 rows, u32 cols) {
  wse::WseConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  return cfg;
}

/// 1x2 sender/receiver program used by several fabric tests.
struct PairProgram {
  static constexpr wse::Color kData = 4;
  static constexpr wse::Color kGo = 9;

  explicit PairProgram(wse::Fabric& fabric,
                       std::vector<u32> payload = {11, 22, 33}) {
    fabric.router(0, 0).set_route(kData, {wse::Direction::kRamp},
                                  {wse::Direction::kEast});
    fabric.router(0, 1).set_route(kData, {wse::Direction::kWest},
                                  {wse::Direction::kRamp});
    fabric.bind_task(0, 0, kGo, [payload](wse::PeContext& ctx) {
      ctx.send_async(kData, wse::Message::make(kData, payload, 1));
    });
    fabric.bind_task(
        0, 1, kData,
        [this](wse::PeContext& ctx) {
          wse::Message m = ctx.take_delivered(kData);
          received = *m.payload;
          corrupted_flag = m.corrupted;
          ++deliveries;
        },
        wse::TaskTrigger::kDataTriggered);
    fabric.activate_at(0, 0, kGo, 0);
  }

  std::vector<u32> received;
  bool corrupted_flag = false;
  int deliveries = 0;
};

TEST(FabricFaults, DeadPeSwallowsTrafficAndCountsIt) {
  wse::Fabric fabric(small_mesh(1, 2));
  wse::FaultPlan plan;
  plan.kill_pe(0, 1);
  fabric.set_fault_plan(plan);
  PairProgram prog(fabric);
  const wse::RunStats rs = fabric.run();
  EXPECT_EQ(prog.deliveries, 0);
  EXPECT_EQ(rs.tasks_run, 1u);  // only the sender ran
  EXPECT_GE(rs.messages_dropped, 1u);
}

TEST(FabricFaults, DeadPeSuppressesActivations) {
  wse::Fabric fabric(small_mesh(1, 1));
  wse::FaultPlan plan;
  plan.kill_pe(0, 0);
  fabric.set_fault_plan(plan);
  int runs = 0;
  fabric.bind_task(0, 0, 5, [&](wse::PeContext&) { ++runs; });
  fabric.activate_at(0, 0, 5, 0);
  const wse::RunStats rs = fabric.run();
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(rs.activations_suppressed, 1u);
  EXPECT_EQ(rs.tasks_run, 0u);
}

TEST(FabricFaults, SlowPeStretchesTheMakespan) {
  auto run_with = [](f64 multiplier) {
    wse::Fabric fabric(small_mesh(1, 1));
    if (multiplier > 1.0) {
      wse::FaultPlan plan;
      plan.slow_pe(0, 0, multiplier);
      fabric.set_fault_plan(plan);
    }
    fabric.bind_task(0, 0, 5, [](wse::PeContext& ctx) { ctx.consume(100); });
    fabric.activate_at(0, 0, 5, 0);
    return fabric.run().makespan;
  };
  const Cycles healthy = run_with(1.0);
  const Cycles slowed = run_with(3.0);
  EXPECT_GT(slowed, healthy);
  // The slow PE's task body runs 3x longer; fixed overheads are unscaled.
  EXPECT_GE(slowed, healthy + 200);
}

TEST(FabricFaults, DroppedDeliveryNeverReachesTheTask) {
  wse::Fabric fabric(small_mesh(1, 2));
  wse::FaultPlan plan;
  plan.drop_delivery(0, 1, 0);
  fabric.set_fault_plan(plan);
  PairProgram prog(fabric);
  const wse::RunStats rs = fabric.run();
  EXPECT_EQ(prog.deliveries, 0);
  EXPECT_EQ(rs.messages_dropped, 1u);
}

TEST(FabricFaults, CorruptedDeliveryFlipsExactlyOneBit) {
  wse::Fabric fabric(small_mesh(1, 2));
  wse::FaultPlan plan;
  plan.corrupt_delivery(0, 1, 0);
  fabric.set_fault_plan(plan);
  const std::vector<u32> sent = {11, 22, 33};
  PairProgram prog(fabric, sent);
  const wse::RunStats rs = fabric.run();
  ASSERT_EQ(prog.deliveries, 1);
  EXPECT_TRUE(prog.corrupted_flag);
  EXPECT_EQ(rs.messages_corrupted, 1u);
  ASSERT_EQ(prog.received.size(), sent.size());
  u32 flipped_bits = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    u32 diff = prog.received[i] ^ sent[i];
    while (diff) {
      flipped_bits += diff & 1u;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1u);
}

TEST(FabricFaults, CorruptionCopiesThePayloadSoSiblingsStayIntact) {
  // Broadcast to (0,1) and (0,2); corrupt only the delivery at (0,1). The
  // multicast shares one payload buffer, so corruption must copy-on-write.
  wse::Fabric fabric(small_mesh(1, 3));
  const wse::Color c = 2;
  fabric.router(0, 0).set_route(c, {wse::Direction::kRamp},
                                {wse::Direction::kEast});
  fabric.router(0, 1).set_route(
      c, {wse::Direction::kWest},
      {wse::Direction::kRamp, wse::Direction::kEast});
  fabric.router(0, 2).set_route(c, {wse::Direction::kWest},
                                {wse::Direction::kRamp});
  wse::FaultPlan plan;
  plan.corrupt_delivery(0, 1, 0);
  fabric.set_fault_plan(plan);

  const std::vector<u32> sent = {7, 8, 9, 10};
  std::vector<u32> at_one, at_two;
  fabric.bind_task(
      0, 1, c,
      [&](wse::PeContext& ctx) { at_one = *ctx.take_delivered(c).payload; },
      wse::TaskTrigger::kDataTriggered);
  fabric.bind_task(
      0, 2, c,
      [&](wse::PeContext& ctx) { at_two = *ctx.take_delivered(c).payload; },
      wse::TaskTrigger::kDataTriggered);
  fabric.bind_task(0, 0, 8, [&](wse::PeContext& ctx) {
    ctx.send_async(c, wse::Message::make(c, sent, 1));
  });
  fabric.activate_at(0, 0, 8, 0);
  fabric.run();
  EXPECT_NE(at_one, sent);   // corrupted copy
  EXPECT_EQ(at_two, sent);   // untouched original
}

TEST(FabricFaults, SetFaultPlanAfterRunThrows) {
  wse::Fabric fabric(small_mesh(1, 1));
  fabric.bind_task(0, 0, 5, [](wse::PeContext& ctx) { ctx.consume(1); });
  fabric.activate_at(0, 0, 5, 0);
  fabric.run();
  EXPECT_THROW(fabric.set_fault_plan(wse::FaultPlan{}), Error);
}

TEST(FabricFaults, RandomPlanIsDeterministicPerSeed) {
  wse::FaultSpec spec;
  spec.dead_pes = 4;
  spec.slow_pes = 3;
  spec.dropped_bursts = 5;
  spec.corrupted_bursts = 5;
  const auto a = wse::FaultPlan::random(42, 16, 16, spec);
  const auto b = wse::FaultPlan::random(42, 16, 16, spec);
  EXPECT_EQ(a.dead_pe_count(), b.dead_pe_count());
  EXPECT_EQ(a.slow_pe_count(), b.slow_pe_count());
  EXPECT_EQ(a.delivery_fault_count(), b.delivery_fault_count());
  for (u32 r = 0; r < 16; ++r) {
    for (u32 c = 0; c < 16; ++c) {
      EXPECT_EQ(a.is_dead(r, c), b.is_dead(r, c));
      EXPECT_EQ(a.cycle_multiplier(r, c), b.cycle_multiplier(r, c));
      for (u64 i = 0; i < spec.arrival_horizon; ++i) {
        ASSERT_EQ(a.delivery_fault(r, c, i), b.delivery_fault(r, c, i));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Mapper layer: routing around dead PEs
// ---------------------------------------------------------------------

mapping::MapperOptions mapper_options(u32 rows, u32 cols, u32 pl = 1) {
  mapping::MapperOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.pipeline_length = pl;
  return opt;
}

TEST(MapperFaults, DeadRowIsSkippedAndStreamStaysBitIdentical) {
  const auto data = test::smooth_signal(32 * 48);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);

  // Kill column 0 of row 1: that row cannot host any pipeline, so row 0
  // absorbs its share. The stream must still match the host codec bit for
  // bit — degraded placement changes scheduling, never bytes.
  mapping::MapperOptions opt = mapper_options(2, 8);
  opt.fault_plan.kill_pe(1, 0);
  const mapping::WaferMapper mapper(opt);
  const auto result = mapper.compress(data, bound);

  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.rows_failed, 1u);
  EXPECT_EQ(result.pipelines_lost, 8u);
  const core::StreamCodec host;
  EXPECT_EQ(result.stream, host.compress(data, bound).stream);

  const std::string summary = mapping::run_summary(result, 2, 8);
  EXPECT_NE(summary.find("DEGRADED"), std::string::npos);
}

TEST(MapperFaults, MidRowDeadPeLosesOnlyEasternPipelines) {
  const auto data = test::smooth_signal(32 * 40);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);

  // cols=8, pl=2 -> 4 pipelines nominally. A dead PE at column 5 leaves
  // columns [0,5) usable: 2 whole pipelines survive, 2 are lost.
  mapping::MapperOptions opt = mapper_options(1, 8, 2);
  opt.fault_plan.kill_pe(0, 5);
  const mapping::WaferMapper mapper(opt);
  const auto result = mapper.compress(data, bound);

  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.rows_failed, 0u);
  EXPECT_EQ(result.pipelines_lost, 2u);
  const core::StreamCodec host;
  EXPECT_EQ(result.stream, host.compress(data, bound).stream);
}

TEST(MapperFaults, DegradedDecompressRoundTrips) {
  const auto data = test::smooth_signal(32 * 32);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);
  const core::StreamCodec host;
  const auto compressed = host.compress(data, bound);

  mapping::MapperOptions opt = mapper_options(2, 6);
  opt.fault_plan.kill_pe(0, 3);  // row 0 keeps pipelines in cols [0,3)
  const mapping::WaferMapper mapper(opt);
  const auto result = mapper.decompress(compressed.stream);

  EXPECT_TRUE(result.degraded);
  ASSERT_EQ(result.output.size(), data.size());
  EXPECT_LE(test::max_err(data, result.output),
            compressed.eps_abs + test::f32_ulp_slack(data));
}

TEST(MapperFaults, DegradedRunIsSlowerThanHealthy) {
  const auto data = test::smooth_signal(32 * 64);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);

  const mapping::WaferMapper healthy(mapper_options(2, 8));
  mapping::MapperOptions opt = mapper_options(2, 8);
  opt.fault_plan.kill_pe(1, 0);
  const mapping::WaferMapper degraded(opt);

  EXPECT_GT(degraded.compress(data, bound).makespan,
            healthy.compress(data, bound).makespan);
}

TEST(MapperFaults, NoUsableRowsThrows) {
  mapping::MapperOptions opt = mapper_options(2, 4);
  opt.fault_plan.kill_pe(0, 0);
  opt.fault_plan.kill_pe(1, 0);
  const mapping::WaferMapper mapper(opt);
  const auto data = test::smooth_signal(256);
  EXPECT_THROW(mapper.compress(data, core::ErrorBound::absolute(1e-3)),
               Error);
}

TEST(MapperFaults, FaultPlanRequiresExactSimulation) {
  mapping::MapperOptions opt = mapper_options(8, 4);
  opt.max_exact_rows = 4;  // 8 rows would be extrapolated
  opt.fault_plan.kill_pe(0, 0);
  const mapping::WaferMapper mapper(opt);
  const auto data = test::smooth_signal(2048);
  EXPECT_THROW(mapper.compress(data, core::ErrorBound::absolute(1e-3)),
               Error);
}

TEST(MapperFaults, SameFaultPlanSameScheduleSameCounters) {
  const auto data = test::smooth_signal(32 * 32);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);
  mapping::MapperOptions opt = mapper_options(2, 8);
  opt.fault_plan.kill_pe(1, 4);
  opt.fault_plan.slow_pe(0, 0, 2.0);
  // Corrupt (not drop): block state rides the message's `user` attachment,
  // so a payload flip is observable in the counters without losing the
  // block — the stream must still assemble, bit-identical.
  opt.fault_plan.corrupt_delivery(0, 1, 3);

  const mapping::WaferMapper mapper(opt);
  const auto a = mapper.compress(data, bound);
  const auto b = mapper.compress(data, bound);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.run_stats.messages_dropped, b.run_stats.messages_dropped);
  EXPECT_EQ(a.run_stats.messages_corrupted, b.run_stats.messages_corrupted);
  EXPECT_EQ(a.run_stats.tasks_run, b.run_stats.tasks_run);
  EXPECT_EQ(a.stream, b.stream);
}

// ---------------------------------------------------------------------
// Engine layer: retries, crashes, deadlines, quarantine
// ---------------------------------------------------------------------

engine::EngineOptions engine_options(u32 threads) {
  engine::EngineOptions opt;
  opt.threads = threads;
  opt.chunk_elems = 256;  // 8 chunks for the 2048-element inputs below
  return opt;
}

const core::ErrorBound kBound = core::ErrorBound::absolute(1e-3);

TEST(EngineFaults, TransientFailuresAreRetriedToByteIdenticalOutput) {
  const auto data = test::smooth_signal(2048);
  const auto clean =
      engine::ParallelEngine(engine_options(2)).compress(data, kBound);

  engine::EngineOptions opt = engine_options(2);
  opt.faults.fail_chunk(1, 2);  // attempts 0 and 1 throw; attempt 2 works
  opt.faults.fail_chunk(5, 1);
  const auto faulty = engine::ParallelEngine(opt).compress(data, kBound);

  EXPECT_EQ(faulty.stream, clean.stream);
  EXPECT_EQ(faulty.stats.retries, 3u);
  EXPECT_EQ(faulty.stats.worker_crashes, 0u);
  EXPECT_EQ(faulty.stats.quarantined, 0u);
}

TEST(EngineFaults, ExhaustedRetriesFailCompressionStructurally) {
  engine::EngineOptions opt = engine_options(2);
  opt.retry.max_attempts = 2;
  opt.faults.fail_chunk(3, 2);  // fails every allowed attempt
  const auto data = test::smooth_signal(2048);
  try {
    engine::ParallelEngine(opt).compress(data, kBound);
    FAIL() << "expected ceresz::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk 3"), std::string::npos);
  }
}

/// Run `fn`, which must throw ceresz::Error; return the Error's message
/// and its kind.
template <class Fn>
std::pair<std::string, ErrorKind> expect_error(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return {e.what(), e.kind()};
  }
  ADD_FAILURE() << "expected ceresz::Error";
  return {"", ErrorKind::kInternal};
}

TEST(EngineFaults, FailedRunsStillPublishTheirRetries) {
  const auto data = test::smooth_signal(2048);
  const auto stream =
      engine::ParallelEngine(engine_options(2)).compress(data, kBound).stream;
  obs::MetricsRegistry reg;
  engine::EngineOptions opt = engine_options(2);
  opt.metrics = &reg;
  opt.faults.fail_chunk(0, opt.retry.max_attempts);  // every attempt throws
  const engine::ParallelEngine eng(opt);
  const u64 retries_per_run = opt.retry.max_attempts - 1;

  auto [what, kind] = expect_error([&] { eng.compress(data, kBound); });
  EXPECT_EQ(kind, ErrorKind::kInternal);
  EXPECT_NE(what.find("chunk 0 failed after 3 attempt(s)"), std::string::npos)
      << what;
  EXPECT_EQ(reg.counter(engine::kMetricRetries).value(), retries_per_run);

  std::tie(what, kind) = expect_error([&] { eng.decompress(stream); });
  EXPECT_EQ(kind, ErrorKind::kInternal);
  EXPECT_EQ(reg.counter(engine::kMetricRetries).value(), 2 * retries_per_run);
}

TEST(EngineFaults, InvalidInputIsAttemptedOnceAndNeverRetried) {
  obs::MetricsRegistry reg;
  engine::EngineOptions opt = engine_options(2);
  opt.metrics = &reg;
  const engine::ParallelEngine eng(opt);

  // NaN in the middle of chunk 1 under an ABS bound reaches prequant.
  auto data = test::smooth_signal(2048);
  data[300] = std::numeric_limits<f32>::quiet_NaN();
  auto [what, kind] = expect_error([&] { eng.compress(data, kBound); });
  EXPECT_EQ(kind, ErrorKind::kInvalidArgument);
  EXPECT_NE(what.find("chunk 1 failed after 1 attempt(s)"), std::string::npos)
      << what;
  EXPECT_NE(what.find("non-finite input value"), std::string::npos) << what;

  // An ε too small for values near 100 fails every chunk on its first try.
  std::vector<f32> hundreds(2048, 100.0f);
  std::tie(what, kind) = expect_error(
      [&] { eng.compress(hundreds, core::ErrorBound::absolute(1e-12)); });
  EXPECT_EQ(kind, ErrorKind::kInvalidArgument);
  EXPECT_NE(what.find("chunk 0 failed after 1 attempt(s)"), std::string::npos)
      << what;
  EXPECT_EQ(reg.counter(engine::kMetricRetries).value(), 0u);
}

TEST(EngineFaults, TimedOutChunksFailWithTheDeadlineKind) {
  obs::MetricsRegistry reg;
  engine::EngineOptions opt = engine_options(2);
  opt.metrics = &reg;
  opt.retry.deadline_ms = 20;
  opt.faults.stall_ms = 10000;
  opt.faults.stall_chunk(2, opt.retry.max_attempts);
  const auto data = test::smooth_signal(2048);
  const auto [what, kind] = expect_error(
      [&] { engine::ParallelEngine(opt).compress(data, kBound); });
  EXPECT_EQ(kind, ErrorKind::kDeadline) << what;
  EXPECT_EQ(reg.counter(engine::kMetricTimeouts).value(),
            opt.retry.max_attempts);
}

TEST(EngineFaults, CrashedWorkersDoNotChangeTheBytes) {
  const auto data = test::smooth_signal(2048);
  const auto clean =
      engine::ParallelEngine(engine_options(2)).compress(data, kBound);

  // Every chunk's first attempt crashes: each crash loses only its
  // attempt, the workers carry on, and every chunk is retried once —
  // output bytes must not change.
  engine::EngineOptions opt = engine_options(2);
  for (u64 c = 0; c < 8; ++c) opt.faults.crash_chunk(c, 0);
  const auto faulty = engine::ParallelEngine(opt).compress(data, kBound);

  EXPECT_EQ(faulty.stream, clean.stream);
  EXPECT_EQ(faulty.stats.worker_crashes, 8u);
  EXPECT_EQ(faulty.stats.retries, 8u);
}

TEST(EngineFaults, WatchdogCancelsStalledChunks) {
  const auto data = test::smooth_signal(2048);
  const auto clean =
      engine::ParallelEngine(engine_options(2)).compress(data, kBound);

  engine::EngineOptions opt = engine_options(2);
  opt.retry.deadline_ms = 50;
  opt.faults.stall_ms = 10000;  // far past the deadline: must be cancelled
  opt.faults.stall_chunk(4, 1);
  const auto start = std::chrono::steady_clock::now();
  const auto faulty = engine::ParallelEngine(opt).compress(data, kBound);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(faulty.stream, clean.stream);
  EXPECT_GE(faulty.stats.timeouts, 1u);
  EXPECT_GE(faulty.stats.retries, 1u);
  // The deadline, not the stall, bounds the run.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(EngineFaults, ADeadlineAddsNoLatency) {
  // A deadline is a time each attempt compares against the clock: setting
  // one must not slow down a call that finishes well within it.
  const auto data = test::smooth_signal(16384);
  engine::EngineOptions opt;
  opt.threads = 2;
  opt.chunk_elems = 16384;  // one chunk
  const engine::ParallelEngine plain(opt);
  opt.retry.deadline_ms = 4000;
  const engine::ParallelEngine deadlined(opt);

  const auto reference = plain.compress(data, kBound).stream;
  std::vector<f64> plain_ms, deadline_ms;
  auto timed = [&](const engine::ParallelEngine& eng, std::vector<f64>& ms) {
    const auto start = std::chrono::steady_clock::now();
    const auto stream = eng.compress(data, kBound).stream;
    ms.push_back(std::chrono::duration<f64, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    EXPECT_EQ(stream, reference);
  };
  for (int i = 0; i < 10; ++i) {
    timed(plain, plain_ms);
    timed(deadlined, deadline_ms);
  }
  const f64 plain_p50 = test::median(plain_ms);
  const f64 deadline_p50 = test::median(deadline_ms);
  EXPECT_LE(deadline_p50, 2.0 * plain_p50 + 1.0)
      << "no deadline: " << plain_p50 << " ms, deadline: " << deadline_p50
      << " ms";
}

TEST(EngineFaults, CorruptChunkIsQuarantinedWithoutWastedRetries) {
  const auto data = test::smooth_signal(2048);
  engine::EngineOptions opt = engine_options(2);
  opt.lenient = true;
  const engine::ParallelEngine eng(opt);
  auto result = eng.compress(data, kBound);

  // Flip one payload byte of chunk 2.
  const auto parsed = io::parse_container(result.stream);
  result.stream[parsed.entries[2].offset] ^= 0x01;

  const auto recovered = eng.decompress(result.stream);
  ASSERT_EQ(recovered.corrupt_chunks, (std::vector<u64>{2}));
  EXPECT_EQ(recovered.stats.quarantined, 1u);
  // Data corruption is permanent: the retry ladder must not spin on it.
  EXPECT_EQ(recovered.stats.retries, 0u);
  // The quarantined range reads as zeros; every other chunk is intact.
  for (u64 i = 0; i < 2048; ++i) {
    const bool in_quarantine = i >= 2 * 256 && i < 3 * 256;
    if (in_quarantine) {
      EXPECT_EQ(recovered.values[i], 0.0f);
    } else {
      EXPECT_NEAR(recovered.values[i], data[i], 1e-3 + 1e-5);
    }
  }
}

TEST(EngineFaults, StrictModeStillThrowsOnCorruptChunks) {
  const auto data = test::smooth_signal(2048);
  engine::EngineOptions opt = engine_options(2);
  const engine::ParallelEngine eng(opt);
  auto result = eng.compress(data, kBound);
  const auto parsed = io::parse_container(result.stream);
  result.stream[parsed.entries[6].offset] ^= 0x10;
  EXPECT_THROW(eng.decompress(result.stream), Error);
}

TEST(EngineFaults, CorruptStreamsFailWithTheCorruptDataKind) {
  const auto data = test::smooth_signal(2048);
  obs::MetricsRegistry reg;
  engine::EngineOptions opt = engine_options(2);
  opt.metrics = &reg;
  const engine::ParallelEngine eng(opt);
  auto stream = eng.compress(data, kBound).stream;

  // A corrupt header or table is caught by the container parse.
  auto bad_header = stream;
  bad_header[20] ^= 0x01;
  EXPECT_EQ(test::error_kind([&] { eng.decompress(bad_header); }),
            ErrorKind::kCorruptData);
  // A corrupt payload fails its chunk's CRC once, with no retry.
  const auto parsed = io::parse_container(stream);
  stream[parsed.entries[4].offset + 1] ^= 0x20;
  const auto [what, kind] = expect_error([&] { eng.decompress(stream); });
  EXPECT_EQ(kind, ErrorKind::kCorruptData);
  EXPECT_NE(what.find("chunk 4 failed after 1 attempt(s)"), std::string::npos)
      << what;
  EXPECT_EQ(reg.counter(engine::kMetricRetries).value(), 0u);
}

TEST(EngineFaults, DecompressionRecoversFromTransientFaults) {
  const auto data = test::smooth_signal(2048);
  const auto compressed =
      engine::ParallelEngine(engine_options(2)).compress(data, kBound);

  engine::EngineOptions opt = engine_options(2);
  opt.faults.fail_chunk(0, 1);
  opt.faults.crash_chunk(7, 0);
  const auto result =
      engine::ParallelEngine(opt).decompress(compressed.stream);
  EXPECT_TRUE(result.corrupt_chunks.empty());
  EXPECT_GE(result.stats.retries, 2u);
  EXPECT_LE(test::max_err(data, result.values),
            1e-3 + test::f32_ulp_slack(data));
}

// ---------------------------------------------------------------------
// Determinism across thread counts and seeds
// ---------------------------------------------------------------------

TEST(FaultDeterminism, SameFaultPlanSameBytesAcrossThreadCounts) {
  const auto data = test::smooth_signal(2048);
  std::vector<u8> reference;
  for (u32 threads : {1u, 2u, 4u}) {
    engine::EngineOptions opt = engine_options(threads);
    opt.faults.fail_chunk(1, 2);
    opt.faults.crash_chunk(3, 0);
    opt.faults.fail_chunk(6, 1);
    const auto result =
        engine::ParallelEngine(opt).compress(data, kBound);
    if (reference.empty()) {
      reference = result.stream;
    } else {
      EXPECT_EQ(result.stream, reference) << threads << " threads";
    }
    EXPECT_EQ(result.stats.retries, 4u) << threads << " threads";
    EXPECT_EQ(result.stats.worker_crashes, 1u) << threads << " threads";
  }
}

TEST(FaultDeterminism, LenientQuarantineIdenticalAcrossThreadCounts) {
  const auto data = test::smooth_signal(2048);
  auto compressed =
      engine::ParallelEngine(engine_options(2)).compress(data, kBound);
  const auto parsed = io::parse_container(compressed.stream);
  compressed.stream[parsed.entries[1].offset] ^= 0x04;
  compressed.stream[parsed.entries[5].offset + 1] ^= 0x40;

  std::vector<f32> reference;
  for (u32 threads : {1u, 2u, 4u}) {
    engine::EngineOptions opt = engine_options(threads);
    opt.lenient = true;
    const auto result =
        engine::ParallelEngine(opt).decompress(compressed.stream);
    EXPECT_EQ(result.corrupt_chunks, (std::vector<u64>{1, 5}));
    EXPECT_EQ(result.stats.quarantined, 2u);
    if (reference.empty()) {
      reference = result.values;
    } else {
      EXPECT_EQ(result.values, reference) << threads << " threads";
    }
  }
}

TEST(FaultDeterminism, RandomFabricPlansReplayIdentically) {
  // Same seed -> same plan -> same simulated run, counters and makespan.
  wse::FaultSpec spec;
  spec.dropped_bursts = 2;
  spec.corrupted_bursts = 2;
  spec.slow_pes = 1;
  const auto data = test::smooth_signal(32 * 16);

  auto run_once = [&](u64 seed) {
    mapping::MapperOptions opt = mapper_options(1, 4);
    opt.fault_plan = wse::FaultPlan::random(seed, 1, 4, spec);
    opt.collect_output = false;  // dropped bursts may lose blocks
    const mapping::WaferMapper mapper(opt);
    return mapper.compress(data, core::ErrorBound::absolute(1e-3));
  };
  const auto a = run_once(123);
  const auto b = run_once(123);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.run_stats.messages_dropped, b.run_stats.messages_dropped);
  EXPECT_EQ(a.run_stats.messages_corrupted, b.run_stats.messages_corrupted);
  EXPECT_EQ(a.run_stats.events_processed, b.run_stats.events_processed);
}

}  // namespace
}  // namespace ceresz
