#include "net/protocol.h"

#include <cmath>
#include <cstdint>
#include <cstring>

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
std::span<const f32> f32_view(const u8* p, u64 count) {
  CERESZ_CHECK(reinterpret_cast<std::uintptr_t>(p) % alignof(f32) == 0,
               "net: f32 payload is misaligned");
  return {reinterpret_cast<const f32*>(p), static_cast<std::size_t>(count)};
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

void append_frame_header(std::vector<u8>& out, const FrameHeader& header) {
  CERESZ_CHECK(header.version == kProtocolVersion ||
                   header.version == kProtocolVersionV3,
               "net: cannot build a frame with an unknown version");
  ByteWriter w(out);
  w.put_tag(kMagic);
  w.put_u8(header.version);
  w.put_u8(static_cast<u8>(header.opcode));
  w.put_u16(static_cast<u16>(header.status));
  w.put_u64(header.request_id);
  w.put_u64(header.payload_bytes);
  w.put_u32(header.payload_crc);
  w.put_u32(header.tenant.tenant_id);
  w.put_u8(header.tenant.priority);
  w.put_zeros(3);  // reserved
  if (header.version == kProtocolVersion) {
    w.put_u64(header.trace.trace_id);
    w.put_u64(header.trace.parent_span_id);
  }
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
  CERESZ_CHECK(std::isfinite(req.bound.value) && req.bound.value > 0.0,
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
  ByteReader r(payload, "net: DECOMPRESS response");
  const u64 count = r.get_u64();
  CERESZ_CHECK(r.remaining() % sizeof(f32) == 0 &&
                   count == r.remaining() / sizeof(f32),
               "net: DECOMPRESS response element count disagrees with its "
               "size");
  values.resize(static_cast<std::size_t>(count));
  if (count > 0) std::memcpy(values.data(), r.rest().data(), r.remaining());
}

// --- whole frames -----------------------------------------------------------

FrameMeta echo_meta(const FrameHeader& request) {
  return FrameMeta(request.tenant, request.trace, request.version);
}

namespace {

/// Reserve room for the whole frame in `out` and append its header.
void append_header_for(std::vector<u8>& out, Opcode op, Status status,
                       u64 request_id, u64 payload_bytes, u32 payload_crc,
                       const FrameMeta& meta) {
  FrameHeader h;
  h.version = meta.version;
  h.opcode = op;
  h.status = status;
  h.request_id = request_id;
  h.payload_bytes = payload_bytes;
  h.payload_crc = payload_crc;
  h.tenant = meta.tenant;
  h.trace = meta.trace;
  out.reserve(out.size() + frame_header_bytes(meta.version) + payload_bytes);
  append_frame_header(out, h);
}

}  // namespace

void append_frame(std::vector<u8>& out, Opcode op, Status status,
                  u64 request_id, std::span<const u8> payload,
                  FrameMeta meta) {
  append_header_for(out, op, status, request_id, payload.size(),
                    payload.empty() ? 0 : crc32c(payload), meta);
  out.insert(out.end(), payload.begin(), payload.end());
}

void append_decompress_response_frame(std::vector<u8>& out, u64 request_id,
                                      std::span<const f32> values,
                                      FrameMeta meta) {
  const auto count = le_bytes(u64{values.size()});
  const std::span<const u8> bytes = raw_bytes(values);
  append_header_for(out, Opcode::kDecompress, Status::kOk, request_id,
                    count.size() + bytes.size(),
                    crc32c(bytes, crc32c(count)), meta);
  out.insert(out.end(), count.begin(), count.end());
  out.insert(out.end(), bytes.begin(), bytes.end());
}

bool payload_crc_ok(const FrameHeader& header, std::span<const u8> payload) {
  return header.payload_crc == (payload.empty() ? 0 : crc32c(payload));
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
