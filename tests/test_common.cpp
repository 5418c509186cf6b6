#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "common/bitio.h"
#include "common/byte_io.h"
#include "common/error.h"
#include "common/format.h"
#include "common/rng.h"
#include "common/stats.h"
#include "test_util.h"

namespace ceresz {
namespace {

// ---- errors ----

TEST(Error, KindDefaultsToInternalAndTheChecksKeepIt) {
  EXPECT_EQ(Error("x").kind(), ErrorKind::kInternal);
  EXPECT_EQ(test::error_kind([] { CERESZ_CHECK(false, "x"); }),
            ErrorKind::kInternal);
  EXPECT_EQ(test::error_kind([] { CERESZ_FAIL("x"); }), ErrorKind::kInternal);
  EXPECT_EQ(test::error_kind([] { CERESZ_CHECK(true, "x"); }), std::nullopt);
}

TEST(Error, CheckKindThrowsItsKindWithTheLocation) {
  try {
    CERESZ_CHECK_KIND(1 + 1 == 3, ErrorKind::kCorruptData, "bad bytes");
    FAIL() << "expected ceresz::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorruptData);
    EXPECT_NE(std::string(e.what()).find("bad bytes [1 + 1 == 3 at "),
              std::string::npos)
        << e.what();
  }
}

// ---- byte I/O ----

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(ByteIo, EachReadSucceedsAtTheEndAndThrowsOneByteShort) {
  const std::vector<u8> buf(8, 0xab);
  const std::span<const u8> all(buf);
  EXPECT_EQ(ByteReader(all.first(1), "t").get_u8(), 0xab);
  EXPECT_EQ(ByteReader(all.first(2), "t").get_u16(), 0xabab);
  EXPECT_EQ(ByteReader(all.first(4), "t").get_u32(), 0xababababu);
  EXPECT_EQ(ByteReader(all.first(8), "t").get_u64(), 0xababababababababull);
  EXPECT_EQ(ByteReader(all, "t").bytes(8).size(), 8u);
  EXPECT_THROW(ByteReader(all.first(0), "t").get_u8(), Error);
  EXPECT_THROW(ByteReader(all.first(1), "t").get_u16(), Error);
  EXPECT_THROW(ByteReader(all.first(3), "t").get_u32(), Error);
  EXPECT_THROW(ByteReader(all.first(7), "t").get_u64(), Error);
  EXPECT_THROW(ByteReader(all.first(7), "t").get_f64(), Error);
  EXPECT_THROW(ByteReader(all.first(7), "t").bytes(8), Error);

  ByteReader r(all, "t");
  r.skip(5);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_FALSE(r.done());
  EXPECT_THROW(r.get_u32(), Error);
  EXPECT_EQ(r.position(), 5u);  // a failed read consumes nothing
  r.bytes(3);
  EXPECT_TRUE(r.done());
}

TEST(ByteIo, OversizedLengthsThrowWithContext) {
  const std::vector<u8> buf(15, 0);
  ByteReader r(buf, "ctx-prefix");
  r.skip(3);
  for (u64 n : {r.remaining() + 1, std::numeric_limits<u64>::max()}) {
    const std::string what = error_of([&] { r.bytes(n); });
    EXPECT_EQ(what.rfind("ctx-prefix: truncated", 0), 0u) << what;
  }
  // elements() must not wrap at count * width either.
  const std::string what = error_of([&] { r.elements(u64{1} << 62, 8); });
  EXPECT_EQ(what.rfind("ctx-prefix: truncated", 0), 0u) << what;
  EXPECT_EQ(r.elements(3, 4).size(), 12u);
  EXPECT_TRUE(r.done());
}

TEST(ByteIo, WriteThenReadRoundTripsBits) {
  const f64 nan_payload =
      std::bit_cast<f64>(u64{0x7ff8'0000'dead'beefull});
  const f64 doubles[] = {-0.0, nan_payload, 1.5, -3.25e300};
  std::vector<u8> buf;
  ByteWriter w(buf);
  w.put_u8(0x12);
  w.put_u16(0xbeef);
  w.put_u32(0xdeadbeefu);
  w.put_u64(0x0123456789abcdefull);
  for (f64 d : doubles) w.put_f64(d);
  w.put_tag("TAG");
  w.put_zeros(2);
  EXPECT_EQ(buf.size(), 1u + 2 + 4 + 8 + 8 * 4 + 3 + 2);
  // Little-endian on the wire, whatever the host order.
  EXPECT_EQ(buf[1], 0xef);
  EXPECT_EQ(buf[2], 0xbe);

  ByteReader r(buf, "t");
  EXPECT_EQ(r.get_u8(), 0x12);
  EXPECT_EQ(r.get_u16(), 0xbeef);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  for (f64 d : doubles) {
    EXPECT_EQ(std::bit_cast<u64>(r.get_f64()), std::bit_cast<u64>(d));
  }
  EXPECT_TRUE(r.next_is("TAG"));
  EXPECT_FALSE(r.next_is("\x01"));
  EXPECT_EQ(r.get_u8(), 0);
  EXPECT_TRUE(r.done());
}

// ---- bit I/O ----

TEST(BitIo, RoundTripMixedWidths) {
  BitWriter w;
  w.put(0b101, 3);
  w.put(0xABCD, 16);
  w.put(1, 1);
  w.put(0x1FFFFF, 21);
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.get(3), 0b101u);
  EXPECT_EQ(r.get(16), 0xABCDu);
  EXPECT_EQ(r.get(1), 1u);
  EXPECT_EQ(r.get(21), 0x1FFFFFu);
}

TEST(BitIo, ZeroWidthIsNoop) {
  BitWriter w;
  w.put(0xFF, 0);
  EXPECT_EQ(w.bit_count(), 0u);
}

TEST(BitIo, MasksHighBits) {
  BitWriter w;
  w.put(0xFF, 4);  // only low 4 bits stored
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.get(4), 0xFu);
  EXPECT_EQ(r.get(4), 0u);  // padding
}

TEST(BitIo, ReadPastEndThrows) {
  const std::vector<u8> one = {0x5A};
  BitReader r(one.data(), one.size());
  r.get(8);
  EXPECT_THROW(r.get(1), Error);
}

TEST(BitIo, PeekDoesNotConsume) {
  BitWriter w;
  w.put(0x3C, 8);
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.peek(4), 0xCu);
  EXPECT_EQ(r.peek(4), 0xCu);
  r.skip(4);
  EXPECT_EQ(r.get(4), 0x3u);
}

TEST(BitIo, WidthLimitEnforced) {
  BitWriter w;
  EXPECT_THROW(w.put(0, 58), Error);
  EXPECT_THROW(w.put(0, -1), Error);
}

TEST(BitIo, LongRandomRoundTrip) {
  Rng rng(99);
  std::vector<std::pair<u64, int>> items;
  BitWriter w;
  for (int i = 0; i < 5000; ++i) {
    const int width = 1 + static_cast<int>(rng.next_below(57));
    const u64 value = rng.next_u64() & ((width >= 64) ? ~0ull
                                                      : ((1ull << width) - 1));
    items.emplace_back(value, width);
    w.put(value, width);
  }
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  for (const auto& [value, width] : items) {
    EXPECT_EQ(r.get(width), value);
  }
}

// ---- RNG ----

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const f64 v = rng.uniform(-2.5, 4.0);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 4.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  f64 sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const f64 g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NextBelowBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

// ---- stats ----

TEST(Stats, Summary) {
  const std::vector<f32> v = {1.0f, -3.0f, 5.0f, 2.0f};
  const ArraySummary s = summarize(v);
  EXPECT_EQ(s.min, -3.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.range(), 8.0);
  EXPECT_NEAR(s.mean, 1.25, 1e-12);
  EXPECT_EQ(s.count, 4u);
}

TEST(Stats, EmptySummary) {
  const ArraySummary s = summarize(std::vector<f32>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.range(), 0.0);
}

TEST(Stats, MaxAbsDiff) {
  const std::vector<f32> a = {1.0f, 2.0f};
  const std::vector<f32> b = {1.5f, 1.0f};
  EXPECT_NEAR(max_abs_diff(a, b), 1.0, 1e-12);
  EXPECT_THROW(max_abs_diff(a, std::vector<f32>{1.0f}), Error);
}

// ---- formatting ----

TEST(Format, TableRendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 12345 |"), std::string::npos);
}

TEST(Format, TableRejectsBadRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
  EXPECT_THROW(TextTable({}), Error);
}

TEST(Format, Bytes) {
  EXPECT_EQ(fmt_bytes(512), "512.0 B");
  EXPECT_EQ(fmt_bytes(2048), "2.00 KB");
  EXPECT_EQ(fmt_bytes(5ull * 1024 * 1024 * 1024), "5.00 GB");
}

TEST(Format, F64Digits) {
  EXPECT_EQ(fmt_f64(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_f64(1.0, 0), "1");
}

}  // namespace
}  // namespace ceresz
