#include "common/checksum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace ceresz {
namespace {

std::span<const u8> bytes_of(const char* s) {
  return {reinterpret_cast<const u8*>(s), std::strlen(s)};
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 (iSCSI) CRC32C test vectors.
  EXPECT_EQ(crc32c({}), 0u);
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xe3069283u);
  const std::vector<u8> zeros32(32, 0x00);
  EXPECT_EQ(crc32c(zeros32), 0x8a9136aau);
  const std::vector<u8> ones32(32, 0xff);
  EXPECT_EQ(crc32c(ones32), 0x62a8ab43u);
  std::vector<u8> ascending(32);
  for (u8 i = 0; i < 32; ++i) ascending[i] = i;
  EXPECT_EQ(crc32c(ascending), 0x46dd794eu);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::vector<u8> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 31 + 7);
  }
  const u32 whole = crc32c(data);
  for (std::size_t split : {0u, 1u, 7u, 8u, 500u, 999u, 1000u}) {
    std::span<const u8> span(data);
    const u32 part = crc32c(span.subspan(split), crc32c(span.first(split)));
    EXPECT_EQ(part, whole) << "split=" << split;
    Crc32c acc;
    acc.update(span.first(split));
    acc.update(span.subspan(split));
    EXPECT_EQ(acc.value(), whole) << "split=" << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<u8> data(64, 0xab);
  const u32 clean = crc32c(data);
  for (std::size_t byte : {0u, 13u, 63u}) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<u8>(1 << bit);
      EXPECT_NE(crc32c(data), clean);
      data[byte] ^= static_cast<u8>(1 << bit);
    }
  }
  EXPECT_EQ(crc32c(data), clean);
}

std::vector<u8> seeded_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> data(n);
  for (auto& b : data) b = static_cast<u8>(rng.next_u64());
  return data;
}

TEST(Crc32cCombine, MatchesOneShotAtEverySplitPoint) {
  // Every length up to 64 (the byte-at-a-time and word paths), then
  // lengths around the 256-byte and 8 KiB-stream boundaries of the
  // hardware kernel, up to 4099 bytes.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (std::size_t n : {255u, 256u, 257u, 767u, 768u, 769u, 1023u, 1024u,
                        4095u, 4096u, 4097u, 4099u}) {
    lengths.push_back(n);
  }
  for (std::size_t n : lengths) {
    const std::vector<u8> data = seeded_bytes(n, 0xc0ffee + n);
    const std::span<const u8> all(data);
    const u32 whole = crc32c(all);
    ASSERT_EQ(whole, crc32c_sw(all)) << "n=" << n;
    for (std::size_t split = 0; split <= n; ++split) {
      const std::span<const u8> a = all.first(split);
      const std::span<const u8> b = all.subspan(split);
      ASSERT_EQ(crc32c_combine(crc32c(a), crc32c(b), b.size()), whole)
          << "n=" << n << " split=" << split;
    }
  }
}

TEST(Crc32cCombine, EmptyPartsAreIdentities) {
  const std::vector<u8> data = seeded_bytes(1000, 7);
  const u32 crc = crc32c(data);
  // An empty right part leaves the left CRC; an empty left part (CRC 0)
  // yields the right one.
  EXPECT_EQ(crc32c_combine(crc, crc32c({}), 0), crc);
  EXPECT_EQ(crc32c_combine(crc32c({}), crc, data.size()), crc);
  EXPECT_EQ(crc32c_combine(0, 0, 0), 0u);
}

TEST(Crc32cCombine, ThreeWaySplitAssociates) {
  const std::vector<u8> data = seeded_bytes(3001, 11);
  const std::span<const u8> all(data);
  const u32 whole = crc32c_sw(all);
  for (std::size_t i : {0u, 1u, 500u, 1500u}) {
    for (std::size_t j : {i, i + 1, std::size_t{2000}, all.size()}) {
      const u32 a = crc32c(all.first(i));
      const u32 b = crc32c(all.subspan(i, j - i));
      const u32 c = crc32c(all.subspan(j));
      const u64 lb = j - i;
      const u64 lc = all.size() - j;
      EXPECT_EQ(crc32c_combine(crc32c_combine(a, b, lb), c, lc), whole)
          << "i=" << i << " j=" << j;
      EXPECT_EQ(crc32c_combine(a, crc32c_combine(b, c, lc), lb + lc), whole)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(Crc32cCombine, SixteenMiBJoinedFromChunks) {
  // The engine's case: a 16 MiB buffer in 256 KiB chunks (64 Ki f32s),
  // plus a prefix that does not end on a chunk boundary.
  const std::vector<u8> data = seeded_bytes(std::size_t{16} << 20, 16);
  const std::span<const u8> all(data);
  const u32 whole = crc32c(all);
  ASSERT_EQ(whole, crc32c_sw(all));
  for (std::size_t head : {std::size_t{0}, std::size_t{52}}) {
    const std::size_t chunk = std::size_t{256} << 10;
    u32 crc = crc32c(all.first(head));
    for (std::size_t at = head; at < all.size(); at += chunk) {
      const std::span<const u8> piece =
          all.subspan(at, std::min(chunk, all.size() - at));
      crc = crc32c_combine(crc, crc32c(piece), piece.size());
    }
    EXPECT_EQ(crc, whole) << "head=" << head;
  }
}

}  // namespace
}  // namespace ceresz
