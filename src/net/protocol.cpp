#include "net/protocol.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/byte_io.h"
#include "common/checksum.h"
#include "common/error.h"

namespace ceresz::net {

namespace {

constexpr std::string_view kMagic = "CSNP";

/// The bulk f32 payload is accessed in place (no copy of multi-MB
/// request bodies); that needs 4-byte alignment, which every buffer the
/// service allocates provides (vector data + a 4-multiple offset). A
/// misaligned view can only come from a hand-built hostile frame slice,
/// so it is rejected like any other malformed payload.
template <class Byte>
auto f32_view(Byte* p, u64 count) {
  using F = std::conditional_t<std::is_const_v<Byte>, const f32, f32>;
  CERESZ_CHECK(reinterpret_cast<std::uintptr_t>(p) % alignof(f32) == 0,
               "net: f32 payload is misaligned");
  return std::span<F>(reinterpret_cast<F*>(p), static_cast<std::size_t>(count));
}

}  // namespace

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "PING";
    case Opcode::kCompress: return "COMPRESS";
    case Opcode::kDecompress: return "DECOMPRESS";
    case Opcode::kStats: return "STATS";
  }
  return "UNKNOWN";
}

const char* status_name(Status st) {
  switch (st) {
    case Status::kOk: return "OK";
    case Status::kMalformed: return "MALFORMED";
    case Status::kUnsupported: return "UNSUPPORTED";
    case Status::kBusy: return "BUSY";
    case Status::kDeadlineExpired: return "DEADLINE_EXPIRED";
    case Status::kBadRequest: return "BAD_REQUEST";
    case Status::kCorruptStream: return "CORRUPT_STREAM";
    case Status::kInternal: return "INTERNAL";
    case Status::kDraining: return "DRAINING";
  }
  return "UNKNOWN";
}

Status status_for(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kInvalidArgument: return Status::kBadRequest;
    case ErrorKind::kCorruptData: return Status::kCorruptStream;
    case ErrorKind::kDeadline: return Status::kDeadlineExpired;
    case ErrorKind::kInternal: return Status::kInternal;
  }
  return Status::kInternal;
}

namespace {

void check_version(u8 version) {
  CERESZ_CHECK(version == kProtocolVersion || version == kProtocolVersionV3,
               "net: cannot build a frame with an unknown version");
}

/// The one header writer: encodes `header` over the
/// frame_header_bytes(header.version) bytes at `dst`.
void write_frame_header(u8* dst, const FrameHeader& header) {
  check_version(header.version);
  const auto put = [&dst](std::span<const u8> field) {
    std::memcpy(dst, field.data(), field.size());
    dst += field.size();
  };
  put({reinterpret_cast<const u8*>(kMagic.data()), kMagic.size()});
  put(le_bytes(header.version));
  put(le_bytes(static_cast<u8>(header.opcode)));
  put(le_bytes(static_cast<u16>(header.status)));
  put(le_bytes(header.request_id));
  put(le_bytes(header.payload_bytes));
  put(le_bytes(header.payload_crc));
  put(le_bytes(header.tenant.tenant_id));
  put(le_bytes(header.tenant.priority));
  put(std::array<u8, 3>{});  // reserved
  if (header.version == kProtocolVersion) {
    put(le_bytes(header.trace.trace_id));
    put(le_bytes(header.trace.parent_span_id));
  }
}

}  // namespace

void append_frame_header(std::vector<u8>& out, const FrameHeader& header) {
  check_version(header.version);
  const std::size_t at = out.size();
  out.resize(at + frame_header_bytes(header.version));
  write_frame_header(out.data() + at, header);
}

FrameHeader parse_frame_header(std::span<const u8> bytes, u64 max_payload) {
  ByteReader r(bytes, "net: frame header");
  CERESZ_CHECK(r.next_is(kMagic), "net: bad frame magic (not a CSNP frame)");
  FrameHeader h;
  h.version = r.get_u8();
  CERESZ_CHECK(h.version == kProtocolVersion ||
                   h.version == kProtocolVersionV3,
               "net: unsupported protocol version");
  const u8 op = r.get_u8();
  CERESZ_CHECK(op >= static_cast<u8>(Opcode::kPing) &&
                   op <= static_cast<u8>(Opcode::kStats),
               "net: unknown opcode");
  h.opcode = static_cast<Opcode>(op);
  const u16 st = r.get_u16();
  CERESZ_CHECK(st <= static_cast<u16>(Status::kDraining),
               "net: unknown status code");
  h.status = static_cast<Status>(st);
  h.request_id = r.get_u64();
  h.payload_bytes = r.get_u64();
  CERESZ_CHECK(h.payload_bytes <= max_payload,
               "net: declared payload exceeds the frame-size bound");
  h.payload_crc = r.get_u32();
  h.tenant.tenant_id = r.get_u32();
  h.tenant.priority = r.get_u8();
  CERESZ_CHECK(h.tenant.priority <= kPriorityMax,
               "net: unknown frame priority");
  const std::span<const u8> reserved = r.bytes(3);
  CERESZ_CHECK(reserved[0] == 0 && reserved[1] == 0 && reserved[2] == 0,
               "net: frame header has reserved bytes set");
  if (h.version == kProtocolVersion) {
    h.trace.trace_id = r.get_u64();
    h.trace.parent_span_id = r.get_u64();
  }
  return h;
}

// --- COMPRESS ---------------------------------------------------------------

void append_compress_request(std::vector<u8>& out,
                             const CompressRequest& req) {
  ByteWriter w(out);
  w.put_u32(req.bound.mode == core::ErrorBound::Mode::kAbsolute ? 0 : 1);
  w.put_u32(req.deadline_ms);
  w.put_f64(req.bound.value);
  w.put_u64(req.data.size());
  w.put_bytes(raw_bytes(req.data));
}

CompressRequest decode_compress_request(std::span<const u8> payload) {
  ByteReader r(payload, "net: COMPRESS payload");
  const u32 mode = r.get_u32();
  CERESZ_CHECK(mode <= 1, "net: COMPRESS payload has an unknown bound mode");
  CompressRequest req;
  req.bound.mode = mode == 0 ? core::ErrorBound::Mode::kAbsolute
                             : core::ErrorBound::Mode::kValueRangeRelative;
  req.deadline_ms = r.get_u32();
  req.bound.value = r.get_f64();
  CERESZ_CHECK_KIND(std::isfinite(req.bound.value) && req.bound.value > 0.0,
                    ErrorKind::kInvalidArgument,
                    "net: COMPRESS payload has a non-positive or non-finite "
                    "error bound");
  const u64 count = r.get_u64();
  // The element count must account for the remaining payload exactly.
  CERESZ_CHECK(r.remaining() % sizeof(f32) == 0,
               "net: COMPRESS payload size is not a whole number of f32s");
  CERESZ_CHECK(count == r.remaining() / sizeof(f32),
               "net: COMPRESS element count disagrees with the payload size");
  req.data = f32_view(r.rest().data(), count);
  return req;
}

// --- DECOMPRESS -------------------------------------------------------------

void append_decompress_request(std::vector<u8>& out,
                               const DecompressRequest& req) {
  ByteWriter w(out);
  w.put_u32(0);  // flags, reserved
  w.put_u32(req.deadline_ms);
  w.put_u64(req.stream.size());
  w.put_bytes(req.stream);
}

DecompressRequest decode_decompress_request(std::span<const u8> payload) {
  ByteReader r(payload, "net: DECOMPRESS payload");
  CERESZ_CHECK(r.get_u32() == 0,
               "net: DECOMPRESS payload has unknown flags set");
  DecompressRequest req;
  req.deadline_ms = r.get_u32();
  const u64 stream_bytes = r.get_u64();
  CERESZ_CHECK(stream_bytes == r.remaining(),
               "net: DECOMPRESS stream length disagrees with the payload "
               "size");
  req.stream = r.rest();
  return req;
}

// --- DECOMPRESS response ----------------------------------------------------

void append_decompress_response(std::vector<u8>& out,
                                std::span<const f32> values) {
  ByteWriter w(out);
  w.put_u64(values.size());
  w.put_bytes(raw_bytes(values));
}

void decode_decompress_response(std::span<const u8> payload,
                                std::vector<f32>& values) {
  const u64 count = decompress_response_count(
      payload.first(std::min(payload.size(), kDecompressCountBytes)),
      payload.size());
  values.resize(static_cast<std::size_t>(count));
  if (count > 0) {
    std::memcpy(values.data(), payload.data() + kDecompressCountBytes,
                count * sizeof(f32));
  }
}

std::span<f32> append_decompress_response_values(std::vector<u8>& out,
                                                 u64 count) {
  ByteWriter(out).put_u64(count);
  const std::size_t at = out.size();
  out.resize(at + count * sizeof(f32));
  return f32_view(out.data() + at, count);
}

u64 decompress_response_count(std::span<const u8> count_bytes,
                              u64 payload_bytes) {
  ByteReader r(count_bytes, "net: DECOMPRESS response");
  const u64 count = r.get_u64();
  CERESZ_CHECK(payload_bytes >= kDecompressCountBytes &&
                   (payload_bytes - kDecompressCountBytes) % sizeof(f32) == 0 &&
                   count == (payload_bytes - kDecompressCountBytes) /
                                sizeof(f32),
               "net: DECOMPRESS response element count disagrees with its "
               "size");
  return count;
}

u32 decompress_response_crc(u64 count, u32 values_crc) {
  return crc32c_combine(crc32c(le_bytes(count)), values_crc,
                        count * sizeof(f32));
}

// --- whole frames -----------------------------------------------------------

FrameMeta echo_meta(const FrameHeader& request) {
  return FrameMeta(request.tenant, request.trace, request.version);
}

std::size_t begin_frame(std::vector<u8>& out, u8 version) {
  check_version(version);
  const std::size_t start = out.size();
  out.resize(start + frame_header_bytes(version));
  return start;
}

void end_frame(std::vector<u8>& out, std::size_t start, Opcode op,
               Status status, u64 request_id, u32 payload_crc,
               const FrameMeta& meta) {
  const std::size_t header_bytes = frame_header_bytes(meta.version);
  CERESZ_CHECK(start <= out.size() && out.size() - start >= header_bytes,
               "net: end_frame without the header begin_frame reserved");
  FrameHeader h;
  h.version = meta.version;
  h.opcode = op;
  h.status = status;
  h.request_id = request_id;
  h.payload_bytes = out.size() - start - header_bytes;
  h.payload_crc = payload_crc;
  h.tenant = meta.tenant;
  h.trace = meta.trace;
  write_frame_header(out.data() + start, h);
}

void append_frame(std::vector<u8>& out, Opcode op, Status status,
                  u64 request_id, std::span<const u8> payload,
                  FrameMeta meta) {
  out.reserve(out.size() + frame_header_bytes(meta.version) + payload.size());
  const std::size_t start = begin_frame(out, meta.version);
  out.insert(out.end(), payload.begin(), payload.end());
  end_frame(out, start, op, status, request_id, crc32c(payload), meta);
}

void append_decompress_response_frame(std::vector<u8>& out, u64 request_id,
                                      std::span<const f32> values,
                                      FrameMeta meta) {
  const std::size_t payload_bytes =
      kDecompressCountBytes + values.size() * sizeof(f32);
  out.reserve(out.size() + frame_header_bytes(meta.version) + payload_bytes);
  const std::size_t start = begin_frame(out, meta.version);
  append_decompress_response(out, values);
  end_frame(out, start, Opcode::kDecompress, Status::kOk, request_id,
            crc32c(std::span<const u8>(out).last(payload_bytes)), meta);
}

bool payload_crc_ok(const FrameHeader& header, std::span<const u8> payload) {
  return header.payload_crc == crc32c(payload);  // crc32c({}) == 0
}

void append_error_frame(std::vector<u8>& out, Opcode op, Status status,
                        u64 request_id, std::string_view message,
                        FrameMeta meta) {
  append_frame(out, op, status, request_id,
               std::span<const u8>(
                   reinterpret_cast<const u8*>(message.data()),
                   message.size()),
               meta);
}

}  // namespace ceresz::net
