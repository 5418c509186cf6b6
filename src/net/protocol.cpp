#include "net/protocol.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/checksum.h"
#include "common/error.h"

namespace ceresz::net {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'N', 'P'};

void append_u16(std::vector<u8>& out, u16 v) {
  out.push_back(static_cast<u8>(v & 0xff));
  out.push_back(static_cast<u8>(v >> 8));
}

void append_u32(std::vector<u8>& out, u32 v) {
  for (int b = 0; b < 4; ++b) {
    out.push_back(static_cast<u8>((v >> (8 * b)) & 0xff));
  }
}

void append_u64(std::vector<u8>& out, u64 v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<u8>((v >> (8 * b)) & 0xff));
  }
}

u16 read_u16(const u8* p) {
  return static_cast<u16>(p[0] | (static_cast<u16>(p[1]) << 8));
}

u32 read_u32(const u8* p) {
  u32 v = 0;
  for (int b = 0; b < 4; ++b) v |= static_cast<u32>(p[b]) << (8 * b);
  return v;
}

u64 read_u64(const u8* p) {
  u64 v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<u64>(p[b]) << (8 * b);
  return v;
}

u64 f64_bits(f64 v) {
  u64 bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

f64 bits_f64(u64 bits) {
  f64 v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

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
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(header.version);
  out.push_back(static_cast<u8>(header.opcode));
  append_u16(out, static_cast<u16>(header.status));
  append_u64(out, header.request_id);
  append_u64(out, header.payload_bytes);
  append_u32(out, header.payload_crc);
  append_u32(out, header.tenant.tenant_id);
  out.push_back(header.tenant.priority);
  out.push_back(0);  // reserved
  out.push_back(0);  // reserved
  out.push_back(0);  // reserved
  if (header.version == kProtocolVersion) {
    append_u64(out, header.trace.trace_id);
    append_u64(out, header.trace.parent_span_id);
  }
}

FrameHeader parse_frame_header(std::span<const u8> bytes, u64 max_payload) {
  CERESZ_CHECK(bytes.size() >= kFrameHeaderBytes,
               "net: frame header is truncated");
  const u8* p = bytes.data();
  CERESZ_CHECK(std::memcmp(p, kMagic, 4) == 0,
               "net: bad frame magic (not a CSNP frame)");
  FrameHeader h;
  h.version = p[4];
  CERESZ_CHECK(h.version == kProtocolVersion ||
                   h.version == kProtocolVersionV3,
               "net: unsupported protocol version");
  const u8 op = p[5];
  CERESZ_CHECK(op >= static_cast<u8>(Opcode::kPing) &&
                   op <= static_cast<u8>(Opcode::kStats),
               "net: unknown opcode");
  h.opcode = static_cast<Opcode>(op);
  const u16 st = read_u16(p + 6);
  CERESZ_CHECK(st <= static_cast<u16>(Status::kDraining),
               "net: unknown status code");
  h.status = static_cast<Status>(st);
  h.request_id = read_u64(p + 8);
  h.payload_bytes = read_u64(p + 16);
  CERESZ_CHECK(h.payload_bytes <= max_payload,
               "net: declared payload exceeds the frame-size bound");
  h.payload_crc = read_u32(p + 24);
  h.tenant.tenant_id = read_u32(p + 28);
  h.tenant.priority = p[32];
  CERESZ_CHECK(h.tenant.priority <= kPriorityMax,
               "net: unknown frame priority");
  CERESZ_CHECK(p[33] == 0 && p[34] == 0 && p[35] == 0,
               "net: frame header has reserved bytes set");
  if (h.version == kProtocolVersion) {
    CERESZ_CHECK(bytes.size() >= kFrameHeaderBytesV4,
                 "net: v4 frame header is truncated");
    h.trace.trace_id = read_u64(p + 36);
    h.trace.parent_span_id = read_u64(p + 44);
  }
  return h;
}

// --- COMPRESS ---------------------------------------------------------------

void append_compress_request(std::vector<u8>& out,
                             const CompressRequest& req) {
  append_u32(out, req.bound.mode == core::ErrorBound::Mode::kAbsolute ? 0 : 1);
  append_u32(out, req.deadline_ms);
  append_u64(out, f64_bits(req.bound.value));
  append_u64(out, req.data.size());
  const std::size_t pos = out.size();
  out.resize(pos + req.data.size() * sizeof(f32));
  if (!req.data.empty()) {
    std::memcpy(out.data() + pos, req.data.data(),
                req.data.size() * sizeof(f32));
  }
}

CompressRequest decode_compress_request(std::span<const u8> payload) {
  constexpr std::size_t kFixed = 24;
  CERESZ_CHECK(payload.size() >= kFixed,
               "net: COMPRESS payload is truncated");
  const u8* p = payload.data();
  const u32 mode = read_u32(p);
  CERESZ_CHECK(mode <= 1, "net: COMPRESS payload has an unknown bound mode");
  CompressRequest req;
  req.bound.mode = mode == 0 ? core::ErrorBound::Mode::kAbsolute
                             : core::ErrorBound::Mode::kValueRangeRelative;
  req.deadline_ms = read_u32(p + 4);
  req.bound.value = bits_f64(read_u64(p + 8));
  CERESZ_CHECK(std::isfinite(req.bound.value) && req.bound.value > 0.0,
               "net: COMPRESS payload has a non-positive or non-finite "
               "error bound");
  const u64 count = read_u64(p + 16);
  // Overflow-safe cross-check: the element count must account for the
  // remaining payload exactly, so count * 4 never needs to be computed
  // before it is known to fit.
  const u64 remaining = payload.size() - kFixed;
  CERESZ_CHECK(remaining % sizeof(f32) == 0,
               "net: COMPRESS payload size is not a whole number of f32s");
  CERESZ_CHECK(count == remaining / sizeof(f32),
               "net: COMPRESS element count disagrees with the payload size");
  req.data = f32_view(p + kFixed, count);
  return req;
}

// --- DECOMPRESS -------------------------------------------------------------

void append_decompress_request(std::vector<u8>& out,
                               const DecompressRequest& req) {
  append_u32(out, 0);  // flags, reserved
  append_u32(out, req.deadline_ms);
  append_u64(out, req.stream.size());
  out.insert(out.end(), req.stream.begin(), req.stream.end());
}

DecompressRequest decode_decompress_request(std::span<const u8> payload) {
  constexpr std::size_t kFixed = 16;
  CERESZ_CHECK(payload.size() >= kFixed,
               "net: DECOMPRESS payload is truncated");
  const u8* p = payload.data();
  CERESZ_CHECK(read_u32(p) == 0,
               "net: DECOMPRESS payload has unknown flags set");
  DecompressRequest req;
  req.deadline_ms = read_u32(p + 4);
  const u64 stream_bytes = read_u64(p + 8);
  CERESZ_CHECK(stream_bytes == payload.size() - kFixed,
               "net: DECOMPRESS stream length disagrees with the payload "
               "size");
  req.stream = payload.subspan(kFixed);
  return req;
}

// --- DECOMPRESS response ----------------------------------------------------

void append_decompress_response(std::vector<u8>& out,
                                std::span<const f32> values) {
  append_u64(out, values.size());
  const std::size_t pos = out.size();
  out.resize(pos + values.size() * sizeof(f32));
  if (!values.empty()) {
    std::memcpy(out.data() + pos, values.data(),
                values.size() * sizeof(f32));
  }
}

void decode_decompress_response(std::span<const u8> payload,
                                std::vector<f32>& values) {
  constexpr std::size_t kFixed = 8;
  CERESZ_CHECK(payload.size() >= kFixed,
               "net: DECOMPRESS response is truncated");
  const u64 count = read_u64(payload.data());
  const u64 remaining = payload.size() - kFixed;
  CERESZ_CHECK(remaining % sizeof(f32) == 0 &&
                   count == remaining / sizeof(f32),
               "net: DECOMPRESS response element count disagrees with its "
               "size");
  values.resize(static_cast<std::size_t>(count));
  if (remaining > 0) {
    std::memcpy(values.data(), payload.data() + kFixed, remaining);
  }
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
  std::vector<u8> count;
  append_u64(count, values.size());
  const std::span<const u8> bytes(reinterpret_cast<const u8*>(values.data()),
                                  values.size_bytes());
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
