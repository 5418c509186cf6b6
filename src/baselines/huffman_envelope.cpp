#include "baselines/huffman_envelope.h"

#include <string>

#include "common/byte_io.h"
#include "common/error.h"

namespace ceresz::baselines {

namespace {

/// Largest element count a decoder will allocate for.
constexpr u64 kMaxCount = u64{1} << 31;

}  // namespace

std::vector<u8> write_envelope(std::string_view magic,
                               const HuffmanEnvelope& env) {
  CERESZ_CHECK(env.outliers.size() % HuffmanEnvelope::kOutlierBytes == 0,
               "HuffmanEnvelope: outliers are not whole 4-byte values");
  std::vector<u8> out;
  ByteWriter w(out);
  w.put_tag(magic);
  w.put_u8(static_cast<u8>(env.dims.size()));
  for (std::size_t d : env.dims) w.put_u64(d);
  w.put_f64(env.eps);
  w.put_u32(env.radius);
  w.put_u64(env.count);
  env.codec.serialize_table(out);
  w.put_u64(env.bits.size());
  w.put_bytes(env.bits);
  w.put_u64(env.outliers.size() / HuffmanEnvelope::kOutlierBytes);
  w.put_bytes(env.outliers);
  return out;
}

HuffmanEnvelope parse_envelope(std::span<const u8> stream,
                               std::string_view magic, const char* context) {
  ByteReader r(stream, context);
  CERESZ_CHECK(r.next_is(magic), std::string(context) + ": bad magic");
  const u8 ndims = r.get_u8();
  CERESZ_CHECK(ndims >= 1 && ndims <= 3,
               std::string(context) + ": corrupt dims");
  std::vector<std::size_t> dims(ndims);
  u64 product = 1;
  for (std::size_t& d : dims) {
    d = r.get_u64();
    // Division form: the running product never exceeds kMaxCount, so it
    // cannot wrap however large the stored dims are.
    CERESZ_CHECK(d >= 1, std::string(context) + ": corrupt geometry");
    CERESZ_CHECK(d <= kMaxCount / product,
                 std::string(context) +
                     ": element count exceeds the decoder limit");
    product *= d;
  }
  const f64 eps = r.get_f64();
  const u32 radius = r.get_u32();
  const u64 count = r.get_u64();
  CERESZ_CHECK(count == product, std::string(context) + ": corrupt geometry");

  std::size_t table_bytes = 0;
  huffman::HuffmanCodec codec =
      huffman::HuffmanCodec::deserialize_table(r.rest(), table_bytes);
  r.skip(table_bytes);
  const std::span<const u8> bits = r.bytes(r.get_u64());
  const std::span<const u8> outliers =
      r.elements(r.get_u64(), HuffmanEnvelope::kOutlierBytes);
  return HuffmanEnvelope{std::move(dims), eps,  radius,  count,
                         std::move(codec), bits, outliers};
}

}  // namespace ceresz::baselines
