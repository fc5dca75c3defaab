#include "common/serialize.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/durable_io.h"
#include "gpt/model.h"
#include "test_util.h"

namespace ppg {
namespace {

TEST(Serialize, PodRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write<std::int32_t>(-7);
  w.write<double>(3.25);
  w.write<std::uint8_t>(255);
  BinaryReader r(ss);
  EXPECT_EQ(r.read<std::int32_t>(), -7);
  EXPECT_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<std::uint8_t>(), 255);
}

TEST(Serialize, StringRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_string("hello\0world");  // embedded NUL is truncated by literal
  w.write_string("");
  w.write_string(std::string("a\0b", 3));
  BinaryReader r(ss);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_string(), std::string("a\0b", 3));
}

TEST(Serialize, VectorRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_vector(std::vector<float>{1.f, -2.f, 0.5f});
  w.write_vector(std::vector<std::int64_t>{});
  BinaryReader r(ss);
  const auto floats = r.read_vector<float>();
  ASSERT_EQ(floats.size(), 3u);
  EXPECT_EQ(floats[1], -2.f);
  EXPECT_TRUE(r.read_vector<std::int64_t>().empty());
}

TEST(Serialize, TruncatedInputThrows) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write<std::int32_t>(1);
  BinaryReader r(ss);
  EXPECT_NO_THROW(r.read<std::int32_t>());
  EXPECT_THROW(r.read<std::int32_t>(), std::runtime_error);
}

TEST(Serialize, TruncatedStringThrows) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write<std::uint64_t>(100);  // claims 100 bytes, provides none
  BinaryReader r(ss);
  EXPECT_THROW(r.read_string(), std::runtime_error);
}

TEST(Serialize, ImplausibleLengthRejected) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write<std::uint64_t>(1ULL << 40);
  BinaryReader r(ss);
  EXPECT_THROW(r.read_string(), std::runtime_error);
}

// --- Corrupted-checkpoint behaviour of GptModel::load -----------------------
// Serving loads operator-supplied checkpoint files; every corruption mode
// must produce a descriptive error instead of garbage weights.

class CorruptCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = dir_.file("model.ckpt");
    gpt::GptModel m(gpt::Config::tiny(), 11);
    m.save(path_);
  }

  std::vector<char> read_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_bytes(const std::vector<char>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  /// The checkpoint's parser-visible bytes: the payload with the durable_io
  /// CRC footer stripped.
  std::vector<char> read_payload() const {
    auto bytes = read_bytes();
    EXPECT_GE(bytes.size(), durable::kFooterBytes);
    bytes.resize(bytes.size() - durable::kFooterBytes);
    return bytes;
  }
  /// Writes a payload re-sealed with a freshly computed CRC footer, so the
  /// corruption under test reaches the checkpoint parser instead of being
  /// caught wholesale by the CRC layer.
  void write_sealed(const std::vector<char>& payload) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    const std::uint64_t size = payload.size();
    const std::uint32_t crc = durable::crc32(payload.data(), payload.size());
    const std::uint32_t magic = durable::kFooterMagic;
    out.write(reinterpret_cast<const char*>(&size), sizeof size);
    out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  }
  /// Expects load() to throw a runtime_error whose message contains `needle`.
  void expect_load_error(const std::string& needle) const {
    gpt::GptModel fresh(gpt::Config::tiny(), 12);
    try {
      fresh.load(path_);
      FAIL() << "load() accepted a corrupt checkpoint";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "error was: " << e.what();
      EXPECT_NE(std::string(e.what()).find(path_), std::string::npos)
          << "error lacks the file path: " << e.what();
    }
  }

  const testing::TempDir dir_;
  std::string path_;
};

TEST_F(CorruptCheckpoint, IntactRoundTrip) {
  gpt::GptModel fresh(gpt::Config::tiny(), 12);
  EXPECT_NO_THROW(fresh.load(path_));
}

TEST_F(CorruptCheckpoint, BadMagic) {
  auto payload = read_payload();
  payload[0] ^= 0x5a;
  write_sealed(payload);
  expect_load_error("bad magic");
}

TEST_F(CorruptCheckpoint, UnsupportedVersion) {
  auto payload = read_payload();
  payload[4] = 99;  // version field follows the 4-byte magic
  write_sealed(payload);
  expect_load_error("unsupported checkpoint version 99");
}

TEST_F(CorruptCheckpoint, TruncatedHeader) {
  // A 6-byte file has no CRC footer, so the legacy fallback hands it to
  // the parser — which runs out of bytes reading the header.
  auto bytes = read_bytes();
  bytes.resize(6);
  write_bytes(bytes);
  expect_load_error("truncated");
}

TEST_F(CorruptCheckpoint, TruncatedTensorData) {
  // Truncation with a re-sealed footer (as if a tool rewrote a short copy
  // end-to-end) must still die in the parser, not yield garbage weights.
  auto payload = read_payload();
  payload.resize(payload.size() / 2);
  write_sealed(payload);
  expect_load_error("tensor data");
}

TEST_F(CorruptCheckpoint, TruncatedWithoutFooterStillDiesCleanly) {
  // Shearing the footer off routes the file through the legacy fallback;
  // the parser must still fail with a precise error, not load garbage.
  auto bytes = read_bytes();
  bytes.resize(bytes.size() / 2);
  write_bytes(bytes);
  expect_load_error("truncated");
}

TEST_F(CorruptCheckpoint, CorruptConfigBlock) {
  auto payload = read_payload();
  // vocab is the first Index after magic+version; zero it out.
  for (int i = 8; i < 12; ++i) payload[static_cast<std::size_t>(i)] = 0;
  write_sealed(payload);
  expect_load_error("corrupt config block");
}

TEST_F(CorruptCheckpoint, ConfigMismatch) {
  gpt::GptModel small(gpt::Config::small(), 13);
  try {
    small.load(path_);
    FAIL() << "load() accepted a checkpoint for a different config";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("config mismatch"), std::string::npos)
        << "error was: " << e.what();
  }
}

TEST_F(CorruptCheckpoint, MissingFile) {
  gpt::GptModel fresh(gpt::Config::tiny(), 12);
  EXPECT_THROW(fresh.load(dir_.file("nope.ckpt")), std::runtime_error);
}

TEST(Serialize, InterleavedHeterogeneousStream) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write<std::uint32_t>(0xDEADBEEF);
  w.write_string("checkpoint");
  w.write_vector(std::vector<int>{1, 2, 3});
  w.write<float>(1.5f);
  BinaryReader r(ss);
  EXPECT_EQ(r.read<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_string(), "checkpoint");
  EXPECT_EQ(r.read_vector<int>(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(r.read<float>(), 1.5f);
}

}  // namespace
}  // namespace ppg
