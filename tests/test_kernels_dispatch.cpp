// Differential test of the runtime-dispatched kernels against their scalar
// references: for every input, the dispatched path (AVX2 / SSE4.2 when the
// CPU has them) must write the same bytes as core::scalar::* and
// crc32c_sw (min_max: the same f64 bit patterns), or throw the same
// Error. On a CPU without those extensions
// both sides run the scalar code and the test passes trivially.
//
//   ctest -R test_kernels_dispatch --output-on-failure
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/cpu_features.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/flenc.h"
#include "core/prequant.h"

namespace ceresz::core {
namespace {

constexpr u64 kSeed = 20240613;
// Sizes that are not a multiple of 32 take the scalar kernels for
// shuffle and unshuffle even when dispatched.
constexpr u32 kBlockSizes[] = {8, 16, 32, 40, 64, 256};
constexpr i32 kI32Max = std::numeric_limits<i32>::max();
constexpr i32 kI32Min = std::numeric_limits<i32>::min();

/// "ok", or the message of the Error `f` threw.
std::string outcome(const std::function<void()>& f) {
  try {
    f();
    return "ok";
  } catch (const Error& e) {
    return e.what();
  }
}

/// Residuals of a block whose largest magnitude has exactly `fl` bits,
/// with random signs; fl = 32 puts ±INT32_MAX and INT32_MIN in the block.
std::vector<i32> residuals(Rng& rng, u32 L, u32 fl) {
  std::vector<i32> v(L, 0);
  if (fl == 0) return v;
  const u64 limit = u64{1} << (fl - 1);  // magnitudes below 2^(fl-1) ...
  for (auto& x : v) {
    const i64 mag = static_cast<i64>(rng.next_below(limit));
    x = static_cast<i32>(rng.next_below(2) ? -mag : mag);
  }
  // ... plus one of exactly fl bits, so block_max has width fl.
  const i64 top = std::min<i64>(static_cast<i64>((u64{1} << fl) - 1), kI32Max);
  v[rng.next_below(L)] = static_cast<i32>(rng.next_below(2) ? -top : top);
  if (fl == 32) {
    v[0] = kI32Max;
    v[L - 1] = -kI32Max;
    v[L / 2] = kI32Min;
  }
  return v;
}

TEST(KernelDispatch, ReportsThePathUnderTest) {
  RecordProperty("avx2", cpu::has_avx2() ? "yes" : "no");
  RecordProperty("sse42", cpu::has_sse42() ? "yes" : "no");
  std::printf("dispatched kernels: avx2=%d sse4.2=%d\n", cpu::has_avx2(),
              cpu::has_sse42());
}

TEST(KernelDispatch, SignMaxShuffleAndInverseMatchScalar) {
  Rng rng(kSeed);
  for (u32 L : kBlockSizes) {
    const std::size_t pb = L / 8;
    for (u32 fl = 0; fl <= 32; ++fl) {
      SCOPED_TRACE("L=" + std::to_string(L) + " fl=" + std::to_string(fl));
      const std::vector<i32> in = residuals(rng, L, fl);

      std::vector<u32> abs_d(L), abs_s(L);
      std::vector<u8> sign_d(pb), sign_s(pb);
      const u32 max_d = split_sign_max(in, abs_d, sign_d);
      const u32 max_s = scalar::split_sign_max(in, abs_s, sign_s);
      ASSERT_EQ(max_d, max_s);
      ASSERT_EQ(abs_d, abs_s);
      ASSERT_EQ(sign_d, sign_s);
      ASSERT_EQ(effective_bits(max_d), fl);
      ASSERT_EQ(block_max(abs_d), max_s);
      ASSERT_EQ(scalar::block_max(abs_d), max_s);

      std::vector<u32> abs_plain(L, 7);
      std::vector<u8> sign_plain(pb, 0x5a);
      split_sign(in, abs_plain, sign_plain);
      ASSERT_EQ(abs_plain, abs_s);
      ASSERT_EQ(sign_plain, sign_s);

      std::vector<u8> planes_d(fl * pb, 0xee), planes_s(fl * pb, 0x11);
      bit_shuffle(abs_d, fl, planes_d);
      scalar::bit_shuffle(abs_s, fl, planes_s);
      ASSERT_EQ(planes_d, planes_s);
      for (u32 k = 0; k < fl; ++k) {
        std::vector<u8> plane_d(pb, 0xee);
        bit_shuffle_plane(abs_d, k, plane_d);
        ASSERT_TRUE(std::equal(plane_d.begin(), plane_d.end(),
                               planes_s.begin() + k * pb));
      }

      std::vector<u32> back_d(L, 9), back_s(L, 3);
      bit_unshuffle(planes_d, fl, back_d);
      scalar::bit_unshuffle(planes_s, fl, back_s);
      ASSERT_EQ(back_d, back_s);
      ASSERT_EQ(back_d, abs_s);

      std::vector<i32> out_d(L), out_s(L);
      apply_sign(back_d, sign_d, out_d);
      scalar::apply_sign(back_s, sign_s, out_s);
      ASSERT_EQ(out_d, out_s);
      ASSERT_EQ(out_d, in);
    }
  }
}

TEST(KernelDispatch, ArbitraryBitsMatchScalar) {
  // Corrupt-stream shapes: shuffle ignores bits at or above fl, unshuffle
  // and apply_sign take any plane bytes, magnitudes above 2^31 included.
  Rng rng(kSeed + 1);
  for (u32 L : kBlockSizes) {
    const std::size_t pb = L / 8;
    for (u32 fl = 0; fl <= 32; ++fl) {
      SCOPED_TRACE("L=" + std::to_string(L) + " fl=" + std::to_string(fl));
      std::vector<u32> absv(L);
      for (auto& v : absv) v = static_cast<u32>(rng.next_u64());
      absv[0] = 0xffffffffu;
      absv[L - 1] = 0x80000000u;
      std::vector<u8> planes_d(fl * pb), planes_s(fl * pb);
      bit_shuffle(absv, fl, planes_d);
      scalar::bit_shuffle(absv, fl, planes_s);
      ASSERT_EQ(planes_d, planes_s);

      std::vector<u8> raw(fl * pb), signs(pb);
      for (auto& b : raw) b = static_cast<u8>(rng.next_u64());
      for (auto& b : signs) b = static_cast<u8>(rng.next_u64());
      std::vector<u32> back_d(L), back_s(L);
      bit_unshuffle(raw, fl, back_d);
      scalar::bit_unshuffle(raw, fl, back_s);
      ASSERT_EQ(back_d, back_s);

      std::vector<i32> out_d(L), out_s(L);
      apply_sign(absv, signs, out_d);
      scalar::apply_sign(absv, signs, out_s);
      ASSERT_EQ(out_d, out_s);
    }
  }
  // block_max takes any length, not just whole sign bytes.
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<u32> v(n);
    for (auto& x : v) x = static_cast<u32>(rng.next_u64() >> rng.next_below(33));
    ASSERT_EQ(block_max(v), scalar::block_max(v)) << "n=" << n;
  }
}

TEST(KernelDispatch, BadArgumentsThrowTheSameError) {
  std::vector<i32> in(16);
  std::vector<u32> abs16(16), abs8(8), abs12(12);
  std::vector<u8> sign2(2), sign1(1), planes(8);
  std::vector<i32> out16(16), out8(8);
  const auto same = [](const std::function<void()>& d,
                       const std::function<void()>& s) {
    const std::string a = outcome(d);
    EXPECT_NE(a, "ok");
    EXPECT_EQ(a, outcome(s));
  };
  same([&] { split_sign(in, abs8, sign2); },
       [&] { scalar::split_sign_max(in, abs8, sign2); });
  same([&] { split_sign_max(in, abs16, sign1); },
       [&] { scalar::split_sign_max(in, abs16, sign1); });
  same([&] { bit_shuffle(abs16, 3, planes); },
       [&] { scalar::bit_shuffle(abs16, 3, planes); });
  same([&] { bit_shuffle(abs12, 1, sign1); },
       [&] { scalar::bit_shuffle(abs12, 1, sign1); });
  same([&] { bit_unshuffle(planes, 3, abs16); },
       [&] { scalar::bit_unshuffle(planes, 3, abs16); });
  same([&] { apply_sign(abs16, sign2, out8); },
       [&] { scalar::apply_sign(abs16, sign2, out8); });
  same([&] { apply_sign(abs12, sign1, out8); },
       [&] { scalar::apply_sign(abs12, sign1, out8); });
}

// --- prequant / dequant ---------------------------------------------------

/// Bit patterns, so -0.0 and NaN payloads compare exactly.
std::vector<u32> bits_of(const std::vector<f32>& v) {
  std::vector<u32> bits(v.size());
  std::transform(v.begin(), v.end(), bits.begin(),
                 [](f32 x) { return std::bit_cast<u32>(x); });
  return bits;
}

void expect_prequant_matches(std::span<const f32> in, f64 two_eps) {
  std::vector<i32> q_d(in.size()), q_s(in.size());
  const std::string r_d = outcome([&] { prequant(in, q_d, two_eps); });
  const std::string r_s = outcome([&] { scalar::prequant(in, q_s, two_eps); });
  ASSERT_EQ(r_d, r_s);
  if (r_d != "ok") return;
  ASSERT_EQ(q_d, q_s);
  std::vector<f32> x_d(in.size()), x_s(in.size());
  dequant(q_d, x_d, two_eps);
  scalar::dequant(q_s, x_s, two_eps);
  ASSERT_EQ(bits_of(x_d), bits_of(x_s));
}

TEST(KernelDispatch, PrequantAndDequantMatchScalar) {
  Rng rng(kSeed + 2);
  const f64 eps_list[] = {1e-30, 1e-6, 1e-3, 0.5, 1e3};
  // Lengths cover the vector body and every scalar tail length.
  for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 16u, 32u, 33u, 64u, 256u}) {
    for (f64 eps : eps_list) {
      SCOPED_TRACE("n=" + std::to_string(n) + " eps=" + std::to_string(eps));
      std::vector<f32> in(n);
      // Values straddling the .5 rounding boundaries at this ε.
      for (auto& x : in) {
        const f64 k = std::floor(rng.uniform(-1e6, 1e6));
        x = static_cast<f32>((k + 0.5 + rng.uniform(-1e-3, 1e-3)) * 2 * eps);
      }
      expect_prequant_matches(in, 2 * eps);
      for (auto& x : in) x = static_cast<f32>(rng.uniform(-10.0, 10.0));
      expect_prequant_matches(in, 2 * eps);
    }
  }
}

TEST(KernelDispatch, PrequantSpecialValuesMatchScalar) {
  const f32 inf = std::numeric_limits<f32>::infinity();
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  const f32 denorm = std::numeric_limits<f32>::denorm_min();
  const std::vector<f32> specials = {FLT_MAX, -FLT_MAX, denorm, -denorm,
                                     FLT_MIN * 0.5f, -0.0f, nan, inf, -inf};
  for (u32 L : kBlockSizes) {
    for (f32 special : specials) {
      for (f64 two_eps : {1e-300, 1e-6, 2.0, 1e38, 1e300}) {
        std::vector<f32> in(L, 1.0f);
        for (u32 pos : {0u, L / 2, L - 1}) {
          SCOPED_TRACE("L=" + std::to_string(L) + " value=" +
                       std::to_string(special) + " pos=" + std::to_string(pos) +
                       " two_eps=" + std::to_string(two_eps));
          in.assign(L, 1.0f);
          in[pos] = special;
          expect_prequant_matches(in, two_eps);
        }
      }
    }
  }
  // Non-finite and overflowing values in one block: same verdict.
  std::vector<f32> mixed(32, 3.0e9f);
  mixed[20] = nan;
  expect_prequant_matches(mixed, 1e-3);
  // A bad argument throws the same Error.
  std::vector<i32> short_out(3);
  const std::vector<f32> four(4, 1.0f);
  EXPECT_EQ(outcome([&] { prequant(four, short_out, 1.0); }),
            outcome([&] { scalar::prequant(four, short_out, 1.0); }));
  std::vector<i32> q(4);
  EXPECT_EQ(outcome([&] { prequant(four, q, 0.0); }),
            outcome([&] { scalar::prequant(four, q, 0.0); }));
}

TEST(KernelDispatch, DequantExtremesMatchScalar) {
  const std::vector<i32> q = {kI32Max, kI32Min, -kI32Max, 0, 1, -1, 12345,
                              -98765};
  for (f64 two_eps : {1e-300, 1e-6, 2.0, 1e30, 1e300}) {
    std::vector<f32> x_d(q.size()), x_s(q.size());
    dequant(q, x_d, two_eps);
    scalar::dequant(q, x_s, two_eps);
    ASSERT_EQ(bits_of(x_d), bits_of(x_s)) << "two_eps=" << two_eps;
  }
}

// --- REL range pass ------------------------------------------------------

/// min_max on both paths: the same f64 bit patterns, so NaN and the
/// sign of zero count.
void expect_min_max_matches(std::span<const f32> in) {
  const MinMax d = min_max(in);
  const MinMax s = scalar::min_max(in);
  ASSERT_EQ(std::bit_cast<u64>(d.min), std::bit_cast<u64>(s.min));
  ASSERT_EQ(std::bit_cast<u64>(d.max), std::bit_cast<u64>(s.max));
}

TEST(KernelDispatch, MinMaxMatchesScalarAtEveryLength) {
  Rng rng(kSeed + 6);
  // Every tail length around the 32-element vector step.
  for (std::size_t n = 1; n <= 200; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<f32> in(n);
    for (auto& x : in) x = static_cast<f32>(rng.uniform(-1e3, 1e3));
    expect_min_max_matches(in);
    // Extremes in the first element, the vector body and the tail.
    for (std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
      auto v = in;
      v[pos] = -5e3f;
      expect_min_max_matches(v);
      v[pos] = 5e3f;
      expect_min_max_matches(v);
    }
  }
  std::vector<f32> big(65536 + 13);
  for (auto& x : big) x = static_cast<f32>(rng.next_gaussian() * 10.0);
  expect_min_max_matches(big);
}

TEST(KernelDispatch, MinMaxSpecialValuesMatchScalar) {
  const f32 inf = std::numeric_limits<f32>::infinity();
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  for (std::size_t n : {1u, 7u, 32u, 33u, 64u, 100u, 257u}) {
    for (std::size_t pos : {std::size_t{0}, std::size_t{1}, n / 2, n - 1}) {
      if (pos >= n) continue;
      for (f32 special : {nan, -nan, inf, -inf, FLT_MAX, -FLT_MAX}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " pos=" +
                     std::to_string(pos) + " value=" +
                     std::to_string(special));
        std::vector<f32> in(n);
        for (std::size_t i = 0; i < n; ++i) {
          in[i] = static_cast<f32>(i % 5) - 2.0f;
        }
        in[pos] = special;
        expect_min_max_matches(in);
      }
    }
  }
  // A NaN first element propagates into both ends; a later one is
  // ignored.
  std::vector<f32> in(100, 1.0f);
  in[0] = nan;
  in[50] = -3.0f;
  EXPECT_TRUE(std::isnan(min_max(in).min) && std::isnan(min_max(in).max));
  in[0] = 2.0f;
  in[70] = nan;
  EXPECT_EQ(min_max(in).min, -3.0);
  EXPECT_EQ(min_max(in).max, 2.0);
}

TEST(KernelDispatch, MinMaxFirstSeenSignedZeroWins) {
  // Fields whose minimum (or maximum) is zero, with both zeros present
  // in every order and position: the scan keeps the first one it sees,
  // and lanes that see them out of order must not change that.
  for (std::size_t n : {2u, 31u, 32u, 64u, 65u, 200u}) {
    for (std::size_t a = 0; a < n; a += 7) {
      for (std::size_t b = 0; b < n; b += 5) {
        if (a == b) continue;
        for (f32 first : {0.0f, -0.0f}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " a=" + std::to_string(a) +
                       " b=" + std::to_string(b));
          std::vector<f32> pos(n, 1.0f), neg(n, -1.0f);
          pos[a] = neg[a] = first;
          pos[b] = neg[b] = -first;
          expect_min_max_matches(pos);
          expect_min_max_matches(neg);
          const f32 seen = a < b ? first : -first;
          EXPECT_EQ(std::signbit(min_max(pos).min), std::signbit(seen));
          EXPECT_EQ(std::signbit(min_max(neg).max), std::signbit(seen));
        }
      }
    }
  }
  // All zeros: both ends are the first element.
  std::vector<f32> zeros(96, 0.0f);
  zeros[0] = -0.0f;
  expect_min_max_matches(zeros);
  EXPECT_TRUE(std::signbit(min_max(zeros).min));
  EXPECT_TRUE(std::signbit(min_max(zeros).max));
}

TEST(KernelDispatch, MinMaxRejectsEmptyInputOnBothPaths) {
  const std::vector<f32> empty;
  EXPECT_EQ(outcome([&] { min_max(empty); }),
            outcome([&] { scalar::min_max(empty); }));
  EXPECT_NE(outcome([&] { min_max(empty); }), "ok");
}

// --- CRC32C ---------------------------------------------------------------

TEST(KernelDispatch, Crc32cMatchesSoftwareAtEveryLengthAndOffset) {
  Rng rng(kSeed + 3);
  std::vector<u8> buf(4099 + 16);
  for (auto& b : buf) b = static_cast<u8>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 4099; ++n) {
      const std::span<const u8> s(buf.data() + offset, n);
      const u32 seed = static_cast<u32>(n * 2654435761u);
      ASSERT_EQ(crc32c(s), crc32c_sw(s)) << "offset=" << offset << " n=" << n;
      ASSERT_EQ(crc32c(s, seed), crc32c_sw(s, seed))
          << "offset=" << offset << " n=" << n;
    }
  }
}

TEST(KernelDispatch, Crc32cMatchesSoftwareAcrossStreamBoundaries) {
  // Long inputs pass through the three-stream loops (3 x 8 KiB, then
  // 3 x 256 B pieces) before the serial tail.
  Rng rng(kSeed + 5);
  std::vector<u8> buf(3 * 3 * 8192 + 4096);
  for (auto& b : buf) b = static_cast<u8>(rng.next_u64());
  for (std::size_t base : {3 * 8192u, 2 * 3 * 8192u, 3 * 8192u + 3 * 256u}) {
    for (std::size_t n = base - 9; n <= base + 9; ++n) {
      for (std::size_t offset : {0u, 3u}) {
        const std::span<const u8> s(buf.data() + offset, n);
        ASSERT_EQ(crc32c(s, 0x1234567u), crc32c_sw(s, 0x1234567u))
            << "offset=" << offset << " n=" << n;
      }
    }
  }
  const std::span<const u8> all(buf);
  ASSERT_EQ(crc32c(all), crc32c_sw(all));
}

TEST(KernelDispatch, Crc32cKnownVectorsOnBothPaths) {
  const char* digits = "123456789";
  const std::span<const u8> nine(reinterpret_cast<const u8*>(digits), 9);
  const std::vector<u8> zeros32(32, 0x00), ones32(32, 0xff);
  std::vector<u8> ascending(32);
  for (u8 i = 0; i < 32; ++i) ascending[i] = i;
  for (auto* f : {&crc32c, &crc32c_sw}) {
    EXPECT_EQ(f({}, 0), 0u);
    EXPECT_EQ(f(nine, 0), 0xe3069283u);
    EXPECT_EQ(f(zeros32, 0), 0x8a9136aau);
    EXPECT_EQ(f(ones32, 0), 0x62a8ab43u);
    EXPECT_EQ(f(ascending, 0), 0x46dd794eu);
  }
}

TEST(KernelDispatch, Crc32cSeedChainsAcrossSplits) {
  Rng rng(kSeed + 4);
  std::vector<u8> data(3000);
  for (auto& b : data) b = static_cast<u8>(rng.next_u64());
  const std::span<const u8> all(data);
  const u32 whole = crc32c_sw(all);
  for (std::size_t split = 0; split <= data.size(); split += 37) {
    const auto a = all.first(split);
    const auto b = all.subspan(split);
    ASSERT_EQ(crc32c(b, crc32c(a)), whole) << "split=" << split;
    ASSERT_EQ(crc32c(b, crc32c_sw(a)), whole) << "split=" << split;
    ASSERT_EQ(crc32c_sw(b, crc32c(a)), whole) << "split=" << split;
  }
}

}  // namespace
}  // namespace ceresz::core
