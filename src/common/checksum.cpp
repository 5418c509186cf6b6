#include "common/checksum.h"

#include <array>
#include <cstring>

#include "common/cpu_features.h"

#if CERESZ_X86_KERNELS
#include <immintrin.h>
#endif

namespace ceresz {

namespace {

constexpr u32 kPoly = 0x82f63b78u;  // CRC32C, reflected

// 8 slice tables: table[0] is the classic byte-at-a-time table, table[k]
// advances a byte that sits k bytes deeper in the message.
using SliceTables = std::array<std::array<u32, 256>, 8>;

constexpr SliceTables make_tables() {
  SliceTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    t[0][i] = crc;
  }
  for (u32 i = 0; i < 256; ++i) {
    u32 crc = t[0][i];
    for (std::size_t k = 1; k < t.size(); ++k) {
      crc = t[0][crc & 0xffu] ^ (crc >> 8);
      t[k][i] = crc;
    }
  }
  return t;
}

constexpr SliceTables kTables = make_tables();

// CRC arithmetic is polynomial arithmetic modulo P over GF(2), in the
// reflected bit order the tables use: bit 31 holds x^0. Appending n zero
// bytes to a message multiplies its raw (uninverted) CRC state by
// x^(8n) mod P. This is what lets independent streams over consecutive
// pieces of a buffer be combined: crc(A|B) = zeros_|B|(crc(A)) ^ crc(B).
// The pre- and post-inversion of CRC32C cancel out of that identity, so
// it holds for finished CRC values as well as for raw states.
constexpr u32 kOne = 1u << 31;  // x^0

/// a * b mod P.
constexpr u32 mul_mod_p(u32 a, u32 b) {
  u32 product = 0;
  for (u32 m = kOne; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

/// kZeroBytePowers[k] = x^(8 * 2^k) mod P, the factor of 2^k zero bytes.
constexpr std::array<u32, 64> kZeroBytePowers = [] {
  std::array<u32, 64> powers{};
  u32 p = kOne >> 8;  // x^8
  for (u32& power : powers) {
    power = p;
    p = mul_mod_p(p, p);
  }
  return powers;
}();

/// x^(8n) mod P, the factor that appends n zero bytes.
constexpr u32 zero_bytes_factor(u64 n) {
  u32 factor = kOne;
  for (std::size_t k = 0; n != 0; ++k, n >>= 1) {
    if ((n & 1u) != 0) factor = mul_mod_p(kZeroBytePowers[k], factor);
  }
  return factor;
}

/// A fixed zero-byte shift as four table lookups, one per byte of the
/// state, for the hot loop of the three-stream kernel.
struct ZeroShift {
  std::array<std::array<u32, 256>, 4> t{};

  constexpr u32 operator()(u32 s) const {
    return t[0][s & 0xffu] ^ t[1][(s >> 8) & 0xffu] ^
           t[2][(s >> 16) & 0xffu] ^ t[3][s >> 24];
  }
};

constexpr ZeroShift make_zero_shift(std::size_t zero_bytes) {
  const u32 factor = zero_bytes_factor(zero_bytes);
  ZeroShift z;
  for (u32 byte = 0; byte < 4; ++byte) {
    for (u32 v = 0; v < 256; ++v) {
      z.t[byte][v] = mul_mod_p(factor, v << (8 * byte));
    }
  }
  return z;
}

#if CERESZ_X86_KERNELS
// The crc32 instruction folds 8 bytes into the reflected CRC32C state per
// step, the same state the tables carry, so the result is identical. One
// stream is bound by the instruction's latency; three independent streams
// over adjacent pieces keep it busy every cycle and are joined with a
// ZeroShift per piece.
constexpr std::size_t kLongStream = 8192;
constexpr std::size_t kShortStream = 256;
constexpr ZeroShift kShiftLong = make_zero_shift(kLongStream);
constexpr ZeroShift kShiftShort = make_zero_shift(kShortStream);

__attribute__((target("sse4.2"))) u64 crc32c_word(u64 crc, const u8* p) {
  u64 word = 0;
  std::memcpy(&word, p, sizeof(word));
  return _mm_crc32_u64(crc, word);
}

/// Runs three streams of `piece` bytes each while at least 3 * piece
/// bytes remain.
__attribute__((target("sse4.2"))) u32 crc32c_three_streams(
    u32 crc, const u8*& p, std::size_t& n, std::size_t piece,
    const ZeroShift& shift) {
  while (n >= 3 * piece) {
    u64 a = crc;
    u64 b = 0;
    u64 c = 0;
    for (std::size_t i = 0; i < piece; i += 8) {
      a = crc32c_word(a, p + i);
      b = crc32c_word(b, p + piece + i);
      c = crc32c_word(c, p + 2 * piece + i);
    }
    crc = shift(shift(static_cast<u32>(a)) ^ static_cast<u32>(b)) ^
          static_cast<u32>(c);
    p += 3 * piece;
    n -= 3 * piece;
  }
  return crc;
}

__attribute__((target("sse4.2"))) u32 crc32c_sse42(std::span<const u8> data,
                                                   u32 seed) {
  const u8* p = data.data();
  std::size_t n = data.size();
  u32 crc = ~seed;
  crc = crc32c_three_streams(crc, p, n, kLongStream, kShiftLong);
  crc = crc32c_three_streams(crc, p, n, kShortStream, kShiftShort);
  u64 wide = crc;
  for (; n >= 8; p += 8, n -= 8) wide = crc32c_word(wide, p);
  crc = static_cast<u32>(wide);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return ~crc;
}
#endif

}  // namespace

u32 crc32c(std::span<const u8> data, u32 seed) {
#if CERESZ_X86_KERNELS
  if (cpu::has_sse42()) return crc32c_sse42(data, seed);
#endif
  return crc32c_sw(data, seed);
}

u32 crc32c_combine(u32 crc_a, u32 crc_b, u64 len_b) {
  return mul_mod_p(zero_bytes_factor(len_b), crc_a) ^ crc_b;
}

u32 crc32c_sw(std::span<const u8> data, u32 seed) {
  u32 crc = ~seed;
  const u8* p = data.data();
  std::size_t n = data.size();

  while (n >= 8) {
    crc ^= static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
    crc = kTables[7][crc & 0xffu] ^ kTables[6][(crc >> 8) & 0xffu] ^
          kTables[5][(crc >> 16) & 0xffu] ^ kTables[4][crc >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    ++p;
    --n;
  }
  return ~crc;
}

}  // namespace ceresz
