// End-to-end checks of the `ceresz` command-line tool: compress has one
// path (the parallel engine's CSZC container at every --threads), and
// decompress/info still read the single-stream CSZ1 format.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/stream_codec.h"
#include "io/file_io.h"
#include "test_util.h"

#ifndef CERESZ_CLI_PATH
#error "CERESZ_CLI_PATH must name the built ceresz binary"
#endif

namespace ceresz {
namespace {

namespace fs = std::filesystem;

constexpr f64 kEps = 1e-3;

class Cli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ceresz_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    // Three default-sized (64 Ki) chunks, the last one short.
    values_ = test::smooth_signal(150000);
    io::write_bytes(path("in.f32"), as_bytes(values_));
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Run `ceresz <args>` with its output in cli.log; returns the exit code.
  int run(const std::string& args) const {
    const std::string cmd = std::string("\"") + CERESZ_CLI_PATH + "\" " +
                            args + " >>\"" + path("cli.log") + "\" 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string log() const {
    const auto bytes = io::read_bytes(path("cli.log"));
    return {bytes.begin(), bytes.end()};
  }

  std::vector<f32> read_f32(const std::string& name) const {
    const auto bytes = io::read_bytes(path(name));
    std::vector<f32> v(bytes.size() / sizeof(f32));
    std::memcpy(v.data(), bytes.data(), v.size() * sizeof(f32));
    return v;
  }

  static std::vector<u8> as_bytes(const std::vector<f32>& v) {
    std::vector<u8> out(v.size() * sizeof(f32));
    std::memcpy(out.data(), v.data(), out.size());
    return out;
  }

  void expect_within_eps(const std::string& name) const {
    const std::vector<f32> back = read_f32(name);
    ASSERT_EQ(back.size(), values_.size()) << name;
    EXPECT_LE(test::max_err(values_, back), kEps) << name;
  }

  fs::path dir_;
  std::vector<f32> values_;
};

TEST_F(Cli, CompressWritesOneContainerAtEveryThreadCount) {
  const std::string bound = " --abs 0.001";
  ASSERT_EQ(run("compress " + path("in.f32") + " " + path("t1.csz") + bound +
                " --threads 1 --stats-json " + path("t1.json")),
            0)
      << log();
  ASSERT_EQ(run("compress " + path("in.f32") + " " + path("t4.csz") + bound +
                " --threads 4"),
            0)
      << log();
  const auto t1 = io::read_bytes(path("t1.csz"));
  const auto t4 = io::read_bytes(path("t4.csz"));
  ASSERT_GE(t1.size(), 4u);
  EXPECT_EQ(std::string(t1.begin(), t1.begin() + 4), "CSZC");
  EXPECT_EQ(t1, t4);

  // --stats-json works at one thread.
  const auto stats = io::read_bytes(path("t1.json"));
  const std::string json(stats.begin(), stats.end());
  EXPECT_NE(json.find("\"threads\": 1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"chunks\": 3,"), std::string::npos) << json;

  for (const char* threads : {"1", "4"}) {
    const std::string in = std::string("t") + threads + ".csz";
    const std::string out = std::string("back") + threads + ".f32";
    ASSERT_EQ(run("decompress " + path(in) + " " + path(out) +
                  " --threads " + threads),
              0)
        << log();
    expect_within_eps(out);
  }
}

TEST_F(Cli, DecompressAndInfoStillReadCsz1) {
  const core::StreamCodec codec;
  io::write_bytes(
      path("single.csz"),
      codec.compress(values_, core::ErrorBound::absolute(kEps)).stream);
  ASSERT_EQ(run("decompress " + path("single.csz") + " " + path("back.f32")),
            0)
      << log();
  expect_within_eps("back.f32");
  ASSERT_EQ(run("info " + path("single.csz")), 0) << log();
  EXPECT_NE(log().find("valid CereSZ stream: 150000 values"),
            std::string::npos)
      << log();
}

}  // namespace
}  // namespace ceresz
