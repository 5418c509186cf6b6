// Google-benchmark microbenchmarks of the host-side CereSZ kernels: the
// per-stage primitives, the block codec, and the stream codec. These are
// the numbers a CPU deployment of the same algorithm would care about,
// and a regression guard for the library itself.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "ceresz.h"
#include "common/checksum.h"
#include "core/flenc.h"
#include "core/lorenzo.h"
#include "core/prequant.h"

namespace {

using namespace ceresz;

std::vector<f32> bench_data(std::size_t n) {
  Rng rng(7);
  std::vector<f32> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<f32>(std::sin(i / 64.0) + 0.01 * rng.next_gaussian());
  }
  return v;
}

// Kernels with a vector path run twice: `scalar` is the reference in
// core::scalar / crc32c_sw, `dispatched` is what the library calls (AVX2 /
// SSE4.2 when the CPU has them). The ratio of the two rows is the
// kernel's speed-up on this machine.

using PrequantFn = void (*)(std::span<const f32>, std::span<i32>, f64);

void BM_Prequant(benchmark::State& state, PrequantFn prequant) {
  const auto data = bench_data(static_cast<std::size_t>(state.range(0)));
  std::vector<i32> out(data.size());
  for (auto _ : state) {
    prequant(data, out, 2e-3);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(f32));
}
BENCHMARK_CAPTURE(BM_Prequant, scalar, &core::scalar::prequant)
    ->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_Prequant, dispatched, &core::prequant)
    ->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

using MinMaxFn = core::MinMax (*)(std::span<const f32>);

// The REL-bound range pass: one 64 Ki-element engine chunk, and a 16 MiB
// field.
void BM_MinMax(benchmark::State& state, MinMaxFn min_max) {
  const auto data = bench_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(min_max(data));
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(f32));
}
BENCHMARK_CAPTURE(BM_MinMax, scalar, &core::scalar::min_max)
    ->Arg(1 << 16)->Arg(1 << 22);
BENCHMARK_CAPTURE(BM_MinMax, dispatched, &core::min_max)
    ->Arg(1 << 16)->Arg(1 << 22);

void BM_LorenzoForward(benchmark::State& state) {
  std::vector<i32> data(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  for (auto& v : data) v = static_cast<i32>(rng.next_below(1000));
  std::vector<i32> out(data.size());
  for (auto _ : state) {
    core::lorenzo_forward(data, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(i32));
}
BENCHMARK(BM_LorenzoForward)->Arg(1 << 16)->Arg(1 << 20);

/// 2048 blocks of 32 residuals (one engine chunk) whose magnitudes have
/// at most `fl` bits.
std::vector<i32> bench_residuals(u32 fl) {
  std::vector<i32> v(2048 * 32);
  Rng rng(5);
  for (auto& x : v) {
    const i64 mag = static_cast<i64>(rng.next_below(u64{1} << (fl - 1)));
    x = static_cast<i32>(rng.next_below(2) ? -mag : mag);
  }
  return v;
}

using SignMaxFn = u32 (*)(std::span<const i32>, std::span<u32>, std::span<u8>);

void BM_SignMax(benchmark::State& state, SignMaxFn sign_max) {
  const auto in = bench_residuals(static_cast<u32>(state.range(0)));
  std::vector<u32> absv(in.size());
  std::vector<u8> signs(in.size() / 8);
  for (auto _ : state) {
    u32 m = 0;
    for (std::size_t b = 0; b < in.size(); b += 32) {
      m |= sign_max(std::span(in).subspan(b, 32),
                    std::span(absv).subspan(b, 32),
                    std::span(signs).subspan(b / 8, 4));
    }
    benchmark::DoNotOptimize(m);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in.size() / 32);
}
BENCHMARK_CAPTURE(BM_SignMax, scalar, &core::scalar::split_sign_max)->Arg(12);
BENCHMARK_CAPTURE(BM_SignMax, dispatched, &core::split_sign_max)->Arg(12);

using ShuffleFn = void (*)(std::span<const u32>, u32, std::span<u8>);

void BM_BitShuffle(benchmark::State& state, ShuffleFn shuffle) {
  const u32 fl = static_cast<u32>(state.range(0));
  const auto in = bench_residuals(fl);
  std::vector<u32> absv(in.begin(), in.end());
  for (auto& v : absv) v = static_cast<u32>(std::abs(static_cast<i64>(v)));
  std::vector<u8> out(in.size() / 8 * fl);
  for (auto _ : state) {
    for (std::size_t b = 0; b < absv.size(); b += 32) {
      shuffle(std::span(absv).subspan(b, 32), fl,
              std::span(out).subspan(b / 8 * fl, 4 * fl));
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * absv.size() / 32);
}
BENCHMARK_CAPTURE(BM_BitShuffle, scalar, &core::scalar::bit_shuffle)
    ->Arg(4)->Arg(12)->Arg(17)->Arg(32);
BENCHMARK_CAPTURE(BM_BitShuffle, dispatched, &core::bit_shuffle)
    ->Arg(4)->Arg(12)->Arg(17)->Arg(32);

using UnshuffleFn = void (*)(std::span<const u8>, u32, std::span<u32>);

void BM_BitUnshuffle(benchmark::State& state, UnshuffleFn unshuffle) {
  const u32 fl = static_cast<u32>(state.range(0));
  std::vector<u8> planes(2048 * 4 * fl);
  Rng rng(9);
  for (auto& b : planes) b = static_cast<u8>(rng.next_u64());
  std::vector<u32> absv(2048 * 32);
  for (auto _ : state) {
    for (std::size_t b = 0; b < absv.size(); b += 32) {
      unshuffle(std::span(planes).subspan(b / 8 * fl, 4 * fl), fl,
                std::span(absv).subspan(b, 32));
    }
    benchmark::DoNotOptimize(absv.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * absv.size() / 32);
}
BENCHMARK_CAPTURE(BM_BitUnshuffle, scalar, &core::scalar::bit_unshuffle)
    ->Arg(4)->Arg(12)->Arg(17)->Arg(32);
BENCHMARK_CAPTURE(BM_BitUnshuffle, dispatched, &core::bit_unshuffle)
    ->Arg(4)->Arg(12)->Arg(17)->Arg(32);

using CrcFn = u32 (*)(std::span<const u8>, u32);

void BM_Crc32c(benchmark::State& state, CrcFn crc) {
  std::vector<u8> data(static_cast<std::size_t>(state.range(0)));
  Rng rng(11);
  for (auto& b : data) b = static_cast<u8>(rng.next_u64());
  for (auto _ : state) benchmark::DoNotOptimize(crc(data, 0));
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK_CAPTURE(BM_Crc32c, scalar, &crc32c_sw)->Arg(1 << 12)->Arg(1 << 24);
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &crc32c)->Arg(1 << 12)->Arg(1 << 24);

void BM_BlockCompress(benchmark::State& state) {
  const core::BlockCodec codec{core::CodecConfig{}};
  const auto data = bench_data(32);
  std::vector<u8> out;
  for (auto _ : state) {
    out.clear();
    codec.compress(data, 1e-3, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * 128);
}
BENCHMARK(BM_BlockCompress);

void BM_StreamCompress(benchmark::State& state) {
  const core::StreamCodec codec;
  const auto data = bench_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = codec.compress(data, core::ErrorBound::absolute(1e-3));
    benchmark::DoNotOptimize(result.stream.data());
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(f32));
}
BENCHMARK(BM_StreamCompress)->Arg(1 << 16)->Arg(1 << 20);

void BM_StreamDecompress(benchmark::State& state) {
  const core::StreamCodec codec;
  const auto data = bench_data(static_cast<std::size_t>(state.range(0)));
  const auto result = codec.compress(data, core::ErrorBound::absolute(1e-3));
  for (auto _ : state) {
    auto back = codec.decompress(result.stream);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(f32));
}
BENCHMARK(BM_StreamDecompress)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
