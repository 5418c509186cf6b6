#include "io/archive.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "test_util.h"

namespace ceresz::io {
namespace {

std::vector<data::Field> sample_fields() {
  return data::generate_dataset(data::DatasetId::kQmcpack, 42, 0.2);
}

TEST(Archive, CompressAndDecompressAllFields) {
  const auto fields = sample_fields();
  const core::StreamCodec codec;
  const core::ErrorBound bound = core::ErrorBound::relative(1e-3);
  const Archive archive = Archive::compress_fields(fields, bound, codec);
  ASSERT_EQ(archive.size(), fields.size());
  EXPECT_GT(archive.total_ratio(), 1.0);

  for (std::size_t i = 0; i < fields.size(); ++i) {
    const data::Field back = archive.decompress_field(i, codec);
    EXPECT_EQ(back.name, fields[i].name);
    EXPECT_EQ(back.dims, fields[i].dims);
    // Each stream is self-describing: the bound was resolved per field.
    EXPECT_LT(test::max_err(fields[i].view(), back.values), 1.0);
  }
}

TEST(Archive, SerializeParseRoundTrip) {
  const auto fields = sample_fields();
  const core::StreamCodec codec;
  const Archive archive = Archive::compress_fields(
      fields, core::ErrorBound::relative(1e-2), codec);
  const auto bytes = archive.serialize();
  const Archive parsed = Archive::parse(bytes);
  ASSERT_EQ(parsed.size(), archive.size());
  for (std::size_t i = 0; i < archive.size(); ++i) {
    EXPECT_EQ(parsed.entries()[i].name, archive.entries()[i].name);
    EXPECT_EQ(parsed.entries()[i].dims, archive.entries()[i].dims);
    EXPECT_EQ(parsed.entries()[i].stream, archive.entries()[i].stream);
  }
}

TEST(Archive, FileRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "ceresz_archive";
  std::filesystem::create_directories(dir);
  const auto fields = sample_fields();
  const core::StreamCodec codec;
  const Archive archive = Archive::compress_fields(
      fields, core::ErrorBound::relative(1e-3), codec);
  archive.save(dir / "qmcpack.csza");
  const Archive loaded = Archive::load(dir / "qmcpack.csza");
  EXPECT_EQ(loaded.size(), archive.size());
  const data::Field back = loaded.decompress_field(0, codec);
  EXPECT_EQ(back.values.size(), fields[0].values.size());
  std::filesystem::remove_all(dir);
}

TEST(Archive, FindByName) {
  const auto fields = sample_fields();
  const core::StreamCodec codec;
  const Archive archive = Archive::compress_fields(
      fields, core::ErrorBound::relative(1e-2), codec);
  const auto idx = archive.find(fields[1].name);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(archive.find("no-such-field").has_value());
}

TEST(Archive, ParseRejectsCorruption) {
  const auto fields = sample_fields();
  const core::StreamCodec codec;
  const auto bytes = Archive::compress_fields(
                         fields, core::ErrorBound::relative(1e-2), codec)
                         .serialize();
  // Bad magic.
  {
    auto bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(Archive::parse(bad), Error);
  }
  // Truncations at every prefix length must throw, not crash.
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t cut = 4 + rng.next_below(bytes.size() - 4);
    bool threw = false;
    try {
      Archive::parse(std::span<const u8>(bytes.data(), cut));
    } catch (const Error&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "cut=" << cut;
  }
  // Trailing garbage.
  {
    auto bad = bytes;
    bad.push_back(0);
    EXPECT_THROW(Archive::parse(bad), Error);
  }
  // A blob length of 2^64 - 1 must report truncation, not wrap the bound.
  {
    std::vector<u8> bad = {'C', 'S', 'Z', 'A', 1, 0, 0, 0, 1, 0, 0, 0,
                           1, 0, 0, 0, 'x',  // name "x"
                           1, 0, 0, 0,       // one dim
                           4, 0, 0, 0, 0, 0, 0, 0};
    bad.insert(bad.end(), 8, u8{0xff});  // blob length
    bad.insert(bad.end(), {1, 2, 3, 4});
    try {
      Archive::parse(bad);
      ADD_FAILURE() << "a wrapped blob length was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Archive, EmptyArchive) {
  const core::StreamCodec codec;
  const Archive archive =
      Archive::compress_fields({}, core::ErrorBound::relative(1e-3), codec);
  const auto bytes = archive.serialize();
  const Archive parsed = Archive::parse(bytes);
  EXPECT_EQ(parsed.size(), 0u);
  EXPECT_EQ(parsed.total_ratio(), 0.0);
}

}  // namespace
}  // namespace ceresz::io
