#include "io/archive.h"

#include <numeric>

#include "common/byte_io.h"
#include "common/error.h"
#include "io/file_io.h"

namespace ceresz::io {

namespace {

constexpr std::string_view kMagic = "CSZA";
constexpr u32 kVersion = 1;

}  // namespace

f64 ArchiveEntry::compression_ratio() const {
  const std::size_t original = std::accumulate(dims.begin(), dims.end(),
                                               std::size_t{1},
                                               std::multiplies<>()) *
                               sizeof(f32);
  return stream.empty() ? 0.0
                        : static_cast<f64>(original) /
                              static_cast<f64>(stream.size());
}

Archive Archive::compress_fields(const std::vector<data::Field>& fields,
                                 core::ErrorBound bound,
                                 const core::StreamCodec& codec) {
  Archive archive;
  archive.entries_.reserve(fields.size());
  for (const auto& field : fields) {
    ArchiveEntry entry;
    entry.name = field.name;
    entry.dims = field.dims;
    entry.stream = codec.compress(field.view(), bound).stream;
    archive.entries_.push_back(std::move(entry));
  }
  return archive;
}

std::vector<u8> Archive::serialize() const {
  std::vector<u8> out;
  ByteWriter w(out);
  w.put_tag(kMagic);
  w.put_u32(kVersion);
  w.put_u32(static_cast<u32>(entries_.size()));
  for (const auto& entry : entries_) {
    w.put_u32(static_cast<u32>(entry.name.size()));
    w.put_tag(entry.name);
    w.put_u32(static_cast<u32>(entry.dims.size()));
    for (std::size_t d : entry.dims) w.put_u64(d);
    w.put_u64(entry.stream.size());
    w.put_bytes(entry.stream);
  }
  return out;
}

Archive Archive::parse(std::span<const u8> bytes) {
  ByteReader r(bytes, "Archive");
  CERESZ_CHECK(r.next_is(kMagic), "Archive: bad magic");
  CERESZ_CHECK(r.get_u32() == kVersion, "Archive: unsupported version");
  const u32 count = r.get_u32();
  CERESZ_CHECK(count <= 1u << 20, "Archive: absurd entry count");

  Archive archive;
  archive.entries_.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    ArchiveEntry entry;
    const u32 name_len = r.get_u32();
    CERESZ_CHECK(name_len <= 4096, "Archive: absurd string length");
    const auto name = r.bytes(name_len);
    entry.name.assign(name.begin(), name.end());
    const u32 ndims = r.get_u32();
    CERESZ_CHECK(ndims >= 1 && ndims <= 8, "Archive: corrupt dims");
    entry.dims.resize(ndims);
    for (u32 d = 0; d < ndims; ++d) entry.dims[d] = r.get_u64();
    const auto blob = r.bytes(r.get_u64());
    entry.stream.assign(blob.begin(), blob.end());
    archive.entries_.push_back(std::move(entry));
  }
  CERESZ_CHECK(r.done(), "Archive: trailing bytes after last entry");
  return archive;
}

void Archive::save(const std::filesystem::path& path) const {
  write_bytes(path, serialize());
}

Archive Archive::load(const std::filesystem::path& path) {
  return parse(read_bytes(path));
}

data::Field Archive::decompress_field(std::size_t index,
                                      const core::StreamCodec& codec) const {
  CERESZ_CHECK(index < entries_.size(), "Archive: entry index out of range");
  const auto& entry = entries_[index];
  data::Field field;
  field.name = entry.name;
  field.dataset = "archive";
  field.dims = entry.dims;
  field.values = codec.decompress(entry.stream);
  CERESZ_CHECK(field.values.size() == field.dim_product(),
               "Archive: decompressed size does not match entry dims");
  return field;
}

std::optional<std::size_t> Archive::find(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return i;
  }
  return std::nullopt;
}

f64 Archive::total_ratio() const {
  std::size_t original = 0;
  std::size_t compressed = 0;
  for (const auto& entry : entries_) {
    original += std::accumulate(entry.dims.begin(), entry.dims.end(),
                                std::size_t{1}, std::multiplies<>()) *
                sizeof(f32);
    compressed += entry.stream.size();
  }
  return compressed == 0 ? 0.0
                         : static_cast<f64>(original) /
                               static_cast<f64>(compressed);
}

}  // namespace ceresz::io
