#include "io/chunk_container.h"

#include <cstring>

#include "common/byte_io.h"
#include "common/checksum.h"
#include "common/error.h"

namespace ceresz::io {

namespace {

constexpr std::string_view kMagic = "CSZC";

}  // namespace

bool is_chunked_stream(std::span<const u8> stream) {
  return stream.size() >= kMagic.size() &&
         std::memcmp(stream.data(), kMagic.data(), kMagic.size()) == 0;
}

void write_container_prefix(std::vector<u8>& out, const ChunkedHeader& header,
                            std::span<const ChunkEntry> entries) {
  CERESZ_CHECK(entries.size() == header.chunk_count,
               "chunk container: entry count does not match header");
  CERESZ_CHECK(header.version <= 0xff && header.codec_header_bytes > 0 &&
                   header.codec_header_bytes <= 0xff,
               "chunk container: codec header width does not fit the u8 "
               "header field");
  CERESZ_CHECK(header.block_size > 0 && header.block_size <= 0xffff,
               "chunk container: block size does not fit the u16 header "
               "field");

  const std::size_t start = out.size();
  ByteWriter w(out);
  w.put_tag(kMagic);
  w.put_u8(static_cast<u8>(header.version));
  w.put_u8(static_cast<u8>(header.codec_header_bytes));
  w.put_u16(static_cast<u16>(header.block_size));
  w.put_u32(0);  // flags
  w.put_u32(header.chunk_count);
  w.put_u64(header.element_count);
  w.put_u64(header.chunk_elems);
  w.put_f64(header.eps_abs);
  w.put_u32(0);  // reserved
  w.put_u32(crc32c(std::span<const u8>(out).subspan(start)));
  CERESZ_CHECK(out.size() - start == ChunkedHeader::kHeaderBytes,
               "chunk container: header size drift");

  const std::size_t table_start = out.size();
  for (const ChunkEntry& e : entries) {
    w.put_u64(e.offset);
    w.put_u64(e.compressed_bytes);
    w.put_u64(e.element_count);
    w.put_u32(e.crc32c);
    w.put_u32(0);  // reserved
  }
  w.put_u32(crc32c(std::span<const u8>(out).subspan(table_start)));
  CERESZ_CHECK(out.size() - start == header.payload_start(),
               "chunk container: table size drift");
}

ParsedContainer parse_container(std::span<const u8> stream) {
  ByteReader r(stream, "chunk container");
  CERESZ_CHECK(r.next_is(kMagic),
               "chunk container: bad magic — not a CereSZ chunked stream");
  ParsedContainer parsed;
  ChunkedHeader& h = parsed.header;
  h.version = r.get_u8();
  h.codec_header_bytes = r.get_u8();
  h.block_size = r.get_u16();
  r.skip(4);  // flags
  h.chunk_count = r.get_u32();
  h.element_count = r.get_u64();
  h.chunk_elems = r.get_u64();
  h.eps_abs = r.get_f64();
  r.skip(4);  // reserved
  const std::span<const u8> crc_covered = stream.first(r.position());
  CERESZ_CHECK(crc32c(crc_covered) == r.get_u32(),
               "chunk container: header CRC mismatch (corrupt header)");

  CERESZ_CHECK(h.version == 1, "chunk container: unsupported version");
  CERESZ_CHECK(h.block_size > 0, "chunk container: corrupt header (block size)");
  CERESZ_CHECK(h.codec_header_bytes > 0,
               "chunk container: corrupt header (zero codec header width)");
  CERESZ_CHECK(h.eps_abs > 0.0 || h.element_count == 0,
               "chunk container: corrupt header (non-positive error bound)");
  CERESZ_CHECK(h.chunk_elems > 0 || h.element_count == 0,
               "chunk container: corrupt header (zero chunk size)");
  // Structural consistency: the chunk count must be exactly the one implied
  // by element_count / chunk_elems. Computed without ceil-style addition so
  // hostile 2^64-scale values cannot wrap.
  const u64 expected_chunks =
      h.element_count == 0
          ? 0
          : h.element_count / h.chunk_elems +
                (h.element_count % h.chunk_elems != 0 ? 1 : 0);
  CERESZ_CHECK(h.chunk_count == expected_chunks,
               "chunk container: chunk count does not match element count "
               "and chunk size");
  // Bound the table size by the stream before allocating for it.
  const std::span<const u8> table =
      r.elements(h.chunk_count, ChunkedHeader::kEntryBytes);
  CERESZ_CHECK(crc32c(table) == r.get_u32(),
               "chunk container: chunk table CRC mismatch (corrupt table)");

  parsed.entries.resize(h.chunk_count);
  ByteReader t(table, "chunk container: chunk table");
  u64 expected_offset = h.payload_start();
  u64 total_elems = 0;
  for (u32 i = 0; i < h.chunk_count; ++i) {
    ChunkEntry& e = parsed.entries[i];
    e.offset = t.get_u64();
    e.compressed_bytes = t.get_u64();
    e.element_count = t.get_u64();
    e.crc32c = t.get_u32();
    t.skip(4);  // reserved
    CERESZ_CHECK(e.offset == expected_offset,
                 "chunk container: chunk offsets are not contiguous");
    // expected_offset <= stream.size() holds inductively, so the subtraction
    // cannot wrap — unlike `offset + compressed_bytes`, which a hostile
    // compressed_bytes near 2^64 would overflow past the bound.
    CERESZ_CHECK(e.compressed_bytes <= stream.size() - e.offset,
                 "chunk container: chunk payload extends past the stream");
    CERESZ_CHECK(e.element_count > 0 && e.element_count <= h.chunk_elems,
                 "chunk container: chunk element count out of range");
    // Overflow-checked accumulation: each entry may claim at most the
    // elements still unaccounted for, so the sum can never wrap around to
    // h.element_count and smuggle oversized chunks past the total check.
    CERESZ_CHECK(e.element_count <= h.element_count - total_elems,
                 "chunk container: chunk element counts exceed the header's "
                 "element count");
    CERESZ_CHECK(i + 1 == h.chunk_count || e.element_count == h.chunk_elems,
                 "chunk container: only the last chunk may be short");
    // Anti-bomb bound: every block record is at least codec_header_bytes
    // wide, so a chunk of element_count elements needs at least
    // ceil(element_count / block_size) * codec_header_bytes payload bytes.
    // This ties the decoded size to the actual stream size before the
    // reader allocates anything. Division form avoids overflow.
    const u64 min_blocks = e.element_count / h.block_size +
                           (e.element_count % h.block_size != 0 ? 1 : 0);
    CERESZ_CHECK(min_blocks <= e.compressed_bytes / h.codec_header_bytes,
                 "chunk container: chunk payload too small for its element "
                 "count");
    expected_offset += e.compressed_bytes;
    total_elems += e.element_count;
  }
  CERESZ_CHECK(total_elems == h.element_count,
               "chunk container: chunk element counts do not sum to the "
               "header's element count");
  CERESZ_CHECK(expected_offset == stream.size(),
               "chunk container: trailing bytes after the last chunk");
  return parsed;
}

}  // namespace ceresz::io
