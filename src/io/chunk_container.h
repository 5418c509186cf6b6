// Chunked container framing for the parallel engine: a self-describing
// format holding independently compressed chunks with a chunk table
// (offsets, element counts, per-chunk CRC32C) so readers can decompress
// chunks in parallel, access chunks randomly, and localize corruption to
// a single chunk.
//
// Layout (all integers little-endian):
//
//   header (48 bytes)
//     0  magic "CSZC"
//     4  u8  version (= 1)
//     5  u8  codec header_bytes (per-block header width of the payload)
//     6  u16 block_size
//     8  u32 flags (reserved, 0)
//     12 u32 chunk_count
//     16 u64 element_count
//     24 u64 chunk_elems       (elements per chunk; last chunk may be short)
//     32 u64 eps_abs bits      (resolved absolute bound, f64 bit pattern)
//     40 u32 reserved (0)
//     44 u32 CRC32C of bytes [0, 44)
//
//   chunk table (32 bytes per entry, chunk_count entries)
//     u64 offset             (payload start, from byte 0 of the stream)
//     u64 compressed_bytes
//     u64 element_count
//     u32 CRC32C of the payload bytes
//     u32 reserved (0)
//   followed by u32 CRC32C of the whole table
//
//   payloads, in chunk order. Each payload is a run of CereSZ block
//   records exactly as core::StreamCodec emits them — chunk_elems is a
//   multiple of the block size, so the concatenated payloads are
//   bit-identical to the body of the equivalent single-stream container.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"

namespace ceresz::io {

struct ChunkEntry {
  u64 offset = 0;            ///< payload start from byte 0 of the stream
  u64 compressed_bytes = 0;
  u64 element_count = 0;
  u32 crc32c = 0;            ///< CRC32C of the payload bytes
};

struct ChunkedHeader {
  u32 version = 1;
  u32 codec_header_bytes = 4;
  u32 block_size = 32;
  u32 chunk_count = 0;
  u64 element_count = 0;
  u64 chunk_elems = 0;
  f64 eps_abs = 0.0;

  static constexpr std::size_t kHeaderBytes = 48;
  static constexpr std::size_t kEntryBytes = 32;

  /// Bytes of the chunk table including its trailing CRC.
  std::size_t table_bytes() const {
    return static_cast<std::size_t>(chunk_count) * kEntryBytes + 4;
  }
  /// Offset of the first payload byte.
  std::size_t payload_start() const { return kHeaderBytes + table_bytes(); }
};

/// True if `stream` starts with the chunked-container magic "CSZC"
/// (cheap sniff; does not validate anything else).
bool is_chunked_stream(std::span<const u8> stream);

/// Append header + chunk table (with CRCs) to `out`. Entry offsets must
/// already be absolute (from the container's first byte) and ascending.
void write_container_prefix(std::vector<u8>& out, const ChunkedHeader& header,
                            std::span<const ChunkEntry> entries);

/// Parsed view of a chunked stream.
struct ParsedContainer {
  ChunkedHeader header;
  std::vector<ChunkEntry> entries;
};

/// Parse and validate header + chunk table: magic, version, header CRC,
/// table CRC, offset monotonicity and bounds, and that per-chunk element
/// counts sum to the header's element count. Throws ceresz::Error on any
/// violation. Payload CRCs are NOT checked here — that is the reader's
/// per-chunk job, so corruption stays localized.
ParsedContainer parse_container(std::span<const u8> stream);

}  // namespace ceresz::io
