// Wire protocol of the CereSZ compression service ("CSNP": CereSZ
// Network Protocol). Length-prefixed binary frames, little-endian
// throughout (matching the .f32/SDRBench and chunk-container
// conventions of the rest of the codebase).
//
// Frame layout (52-byte v4 header, then `payload_bytes` of payload;
// the first 36 bytes are the v3 header, byte for byte):
//
//   0  u32 magic "CSNP"
//   4  u8  version (= 4; v3 frames are still accepted)
//   5  u8  opcode            (Opcode)
//   6  u16 status            (Status; 0 in requests, result code in
//                             responses — nonzero = error frame whose
//                             payload is a UTF-8 message)
//   8  u64 request_id        (echoed verbatim in the response)
//   16 u64 payload_bytes
//   24 u32 payload_crc       (CRC32C of the payload bytes; 0-byte
//                             payloads carry 0)
//   28 u32 tenant_id         (0 = untenanted legacy traffic; echoed in
//                             the response)
//   32 u8  priority          (kPriorityBatch/Standard/Interactive;
//                             echoed in the response)
//   33 u8[3] reserved        (must be 0 — strict, like DECOMPRESS flags)
//   -- v4 trace context (absent from v3 frames) ------------------------
//   36 u64 trace_id          (distributed-trace id; 0 = untraced — the
//                             server synthesizes one)
//   44 u64 parent_span_id    (the sender's span the receiver's work
//                             nests under; 0 = none)
//
// Version history: v1 had a 24-byte header with no payload CRC. v2 added
// end-to-end payload integrity — every request and response payload is
// covered by CRC32C, so a bit flipped anywhere on the wire is *detected*
// (server: MALFORMED error frame on a still-usable connection; client:
// a typed CorruptResponse) instead of silently compressing or returning
// wrong bytes. The compressed container's own per-chunk CRCs cover the
// data at rest; the frame CRC covers it in flight, including the frames
// (COMPRESS requests, DECOMPRESS responses) that carry raw f32 payloads
// with no internal checksum. v3 adds multi-tenancy: a tenant id plus a
// scheduling priority in every frame, so the server's WaferCoordinator
// (src/tenant) can route requests to per-tenant wafer leases and account
// them per tenant. Tenant id 0 is the untenanted legacy path — a v3
// client that never calls set_tenant behaves exactly like a v2 one.
// The three reserved bytes must be zero (checked strictly, the same
// policy as the DECOMPRESS flags word) so future fields cannot be
// smuggled past old parsers. v4 adds the 16-byte distributed-trace
// context (trace id + parent span id) after the reserved bytes, so one
// request can be followed from a client retry attempt through the
// server's queue into engine chunks (docs/observability.md,
// "Distributed tracing"). Both versions are accepted on the wire:
// servers parse v3 and v4, echo the request's version in the response,
// and synthesize a server-side trace id for v3 (or zero-trace v4)
// requests — a v3 client is served byte-identically to before.
//
// Opcodes and payloads (request -> response):
//   PING        empty -> empty. Liveness + RTT probe.
//   COMPRESS    CompressRequest -> the chunked "CSZC" container bytes,
//               byte-identical to what ParallelEngine::compress /
//               `ceresz compress` (at any --threads) writes for the same
//               input and chunk size.
//   DECOMPRESS  DecompressRequest -> u64 element_count + f32 values.
//   STATS       empty -> the server MetricsRegistry snapshot as JSON
//               (obs::to_json; ceresz_server_* + ceresz_engine_*).
//
// Hostile-input hardening mirrors io/chunk_container.h: every length
// field is checked against the enclosing buffer before use, payload
// sizes are bounded by an explicit anti-bomb limit (kDefaultMaxPayload,
// tightenable per server), and element counts are cross-checked against
// the actual payload size so truncated or padded frames are rejected —
// parse functions throw ceresz::Error and never read out of bounds
// (fuzzed by tests/test_robustness.cpp and tests/test_service.cpp).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "core/config.h"

namespace ceresz::net {

inline constexpr u8 kProtocolVersion = 4;
/// Still accepted on the wire (no trace context); servers echo it back.
inline constexpr u8 kProtocolVersionV3 = 3;
/// Size of the v3 header, which is also the common prefix of a v4
/// header — readers pull this many bytes, peek the version at offset 4,
/// and read kTraceContextBytes more for v4 frames.
inline constexpr std::size_t kFrameHeaderBytes = 36;
inline constexpr std::size_t kTraceContextBytes = 16;
inline constexpr std::size_t kFrameHeaderBytesV4 =
    kFrameHeaderBytes + kTraceContextBytes;

/// Full header size of a frame with this version byte. Unknown versions
/// report the v3 size — enough bytes for parse_frame_header to reject
/// them with its own typed error.
constexpr std::size_t frame_header_bytes(u8 version) {
  return version == kProtocolVersion ? kFrameHeaderBytesV4
                                     : kFrameHeaderBytes;
}

// Wire values of the frame priority byte. Kept as named u8 constants
// (not an enum class) because the net layer only transports them; the
// typed scheduling semantics live in tenant::Priority, which uses the
// same numeric values.
inline constexpr u8 kPriorityBatch = 0;
inline constexpr u8 kPriorityStandard = 1;
inline constexpr u8 kPriorityInteractive = 2;
inline constexpr u8 kPriorityMax = kPriorityInteractive;

/// Anti-bomb bound on payload_bytes: a frame can carry at most 1 GiB.
/// Servers may tighten this (ServerOptions::max_frame_payload); parsers
/// reject bigger declared payloads before allocating anything.
inline constexpr u64 kDefaultMaxPayload = u64{1} << 30;

enum class Opcode : u8 {
  kPing = 1,
  kCompress = 2,
  kDecompress = 3,
  kStats = 4,
};

/// Response result codes. A failed request's status is its error's kind
/// (status_for), except that a payload that does not decode is
/// kMalformed and a passed deadline is kDeadlineExpired; kBusy and
/// kDraining are the service's admission verdicts.
enum class Status : u16 {
  kOk = 0,
  kMalformed = 1,        ///< unparseable frame or payload
  kUnsupported = 2,      ///< reserved; an unknown opcode is kMalformed
  kBusy = 3,             ///< in-flight limit reached; retry later
  kDeadlineExpired = 4,  ///< request deadline passed before completion
  kBadRequest = 5,       ///< invalid bound or input (NaN/Inf, ε too small)
  kCorruptStream = 6,    ///< DECOMPRESS payload failed validation/CRC
  kInternal = 7,         ///< engine failure not attributable to the input
  kDraining = 8,         ///< server is draining; no new work accepted
};

const char* opcode_name(Opcode op);
const char* status_name(Status st);

/// The status that answers a failure of `kind`.
Status status_for(ErrorKind kind);

/// Who a frame belongs to: the tenant routing fields of the v3 header.
/// Defaults are the untenanted legacy path (tenant 0, standard
/// priority); servers echo the request's tag back in the response.
struct TenantTag {
  u32 tenant_id = 0;
  u8 priority = kPriorityStandard;
};

/// The v4 distributed-trace fields. A zero trace_id marks an untraced
/// request (the server synthesizes an id so its own spans still group);
/// parent_span_id is the sender-side span the receiver's work nests
/// under — the client stamps its per-attempt span id here, which is how
/// the stitcher joins one server span tree to one client attempt.
struct TraceTag {
  u64 trace_id = 0;
  u64 parent_span_id = 0;
};

struct FrameHeader {
  u8 version = kProtocolVersion;
  Opcode opcode = Opcode::kPing;
  Status status = Status::kOk;
  u64 request_id = 0;
  u64 payload_bytes = 0;
  u32 payload_crc = 0;  ///< CRC32C of the payload (0 for empty payloads)
  TenantTag tenant{};   ///< v3+: tenant id + priority (0/standard = legacy)
  TraceTag trace{};     ///< v4: trace context (all-zero in v3 frames)
};

/// Append the header bytes to `out`: 36 for a v3 header, 52 for v4
/// (header.version selects; anything else is rejected). A v3 header
/// silently drops the trace fields — v3 cannot carry them.
void append_frame_header(std::vector<u8>& out, const FrameHeader& header);

/// Parse and validate a frame header: magic, version 3 or 4 (with the
/// version's full header present in `bytes`), known opcode, and
/// payload_bytes <= max_payload. Throws ceresz::Error on any violation.
FrameHeader parse_frame_header(std::span<const u8> bytes, u64 max_payload);

// --- COMPRESS ---------------------------------------------------------------
//
// payload: u32 bound_mode (0 = absolute, 1 = value-range relative)
//          u32 deadline_ms (0 = use the server default)
//          f64 bound_value (bit pattern)
//          u64 element_count
//          f32 data[element_count]

struct CompressRequest {
  core::ErrorBound bound;
  u32 deadline_ms = 0;
  std::span<const f32> data;  ///< decoded: a view into the payload buffer
};

void append_compress_request(std::vector<u8>& out, const CompressRequest& req);

/// Decode; the returned view aliases `payload`, which must stay alive
/// and unmoved while the request is in use. Throws ceresz::Error when
/// the payload is truncated, oversized, carries a non-positive or
/// non-finite bound, or its element count disagrees with its size.
CompressRequest decode_compress_request(std::span<const u8> payload);

// --- DECOMPRESS -------------------------------------------------------------
//
// payload: u32 flags (reserved, 0)
//          u32 deadline_ms (0 = use the server default)
//          u64 stream_bytes (must equal the remaining payload exactly)
//          u8  stream[stream_bytes]   (a chunked "CSZC" container)

struct DecompressRequest {
  u32 deadline_ms = 0;
  std::span<const u8> stream;  ///< decoded: a view into the payload buffer
};

void append_decompress_request(std::vector<u8>& out,
                               const DecompressRequest& req);

/// Decode; same aliasing contract and hostile-input behavior as
/// decode_compress_request.
DecompressRequest decode_decompress_request(std::span<const u8> payload);

// --- DECOMPRESS response ----------------------------------------------------
//
// payload: u64 element_count
//          f32 values[element_count]

inline constexpr std::size_t kDecompressCountBytes = sizeof(u64);

void append_decompress_response(std::vector<u8>& out,
                                std::span<const f32> values);

/// Decode into `values` (resized to the declared element count). Throws
/// ceresz::Error on size mismatch.
void decode_decompress_response(std::span<const u8> payload,
                                std::vector<f32>& values);

/// Append the element count of a DECOMPRESS response and room for
/// `count` values to `out`; returns the room, for the values to be
/// decoded into in place. The room must be 4-byte aligned, which a
/// frame begun at the start of a vector provides.
std::span<f32> append_decompress_response_values(std::vector<u8>& out,
                                                 u64 count);

/// The element count of a DECOMPRESS response of `payload_bytes` bytes
/// that starts with `count_bytes` (its first kDecompressCountBytes bytes,
/// or all of a shorter payload). Checked against the size by division
/// before anything count-sized exists, so no count wraps past it; throws
/// ceresz::Error when they disagree.
u64 decompress_response_count(std::span<const u8> count_bytes,
                              u64 payload_bytes);

/// CRC32C of a DECOMPRESS response payload of `count` values whose own
/// bytes have CRC32C `values_crc`, without reading the values again.
u32 decompress_response_crc(u64 count, u32 values_crc);

// --- whole frames -----------------------------------------------------------

/// Everything a frame carries besides opcode/status/id/payload: tenant
/// routing, trace context, and the wire version to emit. Implicitly
/// constructible from a bare TenantTag so pre-v4 call sites read
/// unchanged; servers build one from the request header (echoing its
/// version and trace) via echo_meta().
struct FrameMeta {
  TenantTag tenant{};
  TraceTag trace{};
  u8 version = kProtocolVersion;

  FrameMeta() = default;
  FrameMeta(TenantTag t) : tenant(t) {}  // NOLINT(google-explicit-constructor)
  FrameMeta(TenantTag t, TraceTag tr, u8 v = kProtocolVersion)
      : tenant(t), trace(tr), version(v) {}
};

/// The response meta for a request header: same tenant, same trace,
/// same wire version — a v3 client gets a byte-identical v3 response.
FrameMeta echo_meta(const FrameHeader& request);

/// Start a frame at the end of `out`: append the header of a `version`
/// frame as zero bytes, to be filled in by end_frame once the payload is
/// known. Returns the frame's offset in `out`. The payload goes straight
/// after the header: a caller encodes into `out` itself, so a multi-MB
/// payload is written once, where it is sent from.
std::size_t begin_frame(std::vector<u8>& out, u8 version);

/// Finish the frame begin_frame started at `start`: write its header in
/// place. The payload is every byte after the header up to out.size();
/// `payload_crc` must be its CRC32C (callers that produced the payload
/// in pieces join the pieces' CRCs with crc32c_combine). meta.version
/// must be the version given to begin_frame. Can be called again to
/// restamp the header (a client retry changes only the trace fields).
void end_frame(std::vector<u8>& out, std::size_t start, Opcode op,
               Status status, u64 request_id, u32 payload_crc,
               const FrameMeta& meta);

/// Append a complete frame (header + payload) to `out`; the header's
/// payload_crc is computed from `payload`, so frames built through this
/// function always verify. `meta` stamps the tenant/trace fields and
/// picks the wire version (defaults: untenanted, untraced, v4).
void append_frame(std::vector<u8>& out, Opcode op, Status status,
                  u64 request_id, std::span<const u8> payload,
                  FrameMeta meta = {});

/// Append a complete OK DECOMPRESS response frame carrying `values`,
/// writing the payload straight into `out`. Byte-identical to
/// append_frame over a payload built by append_decompress_response,
/// without that payload copy. The server decodes into its frame instead
/// (append_decompress_response_values between begin_frame and
/// end_frame); this is the byte reference it is tested against.
void append_decompress_response_frame(std::vector<u8>& out, u64 request_id,
                                      std::span<const f32> values,
                                      FrameMeta meta = {});

/// Does `payload` match the CRC its header declared? (The server and
/// client check while reading instead, with Socket::read_exact_crc32c.)
bool payload_crc_ok(const FrameHeader& header, std::span<const u8> payload);

/// Append a complete error frame whose payload is `message`.
void append_error_frame(std::vector<u8>& out, Opcode op, Status status,
                        u64 request_id, std::string_view message,
                        FrameMeta meta = {});

}  // namespace ceresz::net
