// Negative-path coverage for checkpoint IO: every corruption mode of a
// model file — truncation at any point, wrong magic, bad version, corrupt
// or mismatched config, oversized length fields — must surface as a clean
// std::runtime_error naming the file and phase, never as UB or garbage
// weights. The ASan+UBSan CI job runs these with full instrumentation.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/durable_io.h"
#include "common/serialize.h"
#include "gpt/model.h"
#include "test_util.h"

namespace ppg {
namespace {

using gpt::Config;
using gpt::GptModel;

class CheckpointNegativeTest : public ::testing::Test {
 protected:
  std::string path(const char* name) const { return dir_.file(name); }

  /// Writes raw bytes as a checkpoint file and returns its path.
  std::string write_file(const char* name, const std::string& bytes) const {
    const std::string p = path(name);
    std::ofstream out(p, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return p;
  }

  /// A well-formed tiny checkpoint's bytes (payload + CRC footer).
  std::string good_bytes() {
    const std::string p = path("good.ckpt");
    GptModel m(Config::tiny(), 1);
    m.save(p);
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  /// A well-formed checkpoint's payload with the CRC footer stripped, so
  /// tests can corrupt parser-visible bytes and re-seal them.
  std::string good_payload() {
    std::string bytes = good_bytes();
    EXPECT_GE(bytes.size(), durable::kFooterBytes);
    bytes.resize(bytes.size() - durable::kFooterBytes);
    return bytes;
  }

  /// Writes payload bytes with a freshly computed (valid) CRC footer, so
  /// payload-level corruption reaches the GptModel parser instead of being
  /// caught wholesale by the CRC check.
  std::string write_sealed(const char* name, const std::string& payload) const {
    const std::string p = path(name);
    std::ofstream out(p, std::ios::binary);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    const std::uint64_t size = payload.size();
    const std::uint32_t crc = durable::crc32(payload.data(), payload.size());
    const std::uint32_t magic = durable::kFooterMagic;
    out.write(reinterpret_cast<const char*>(&size), sizeof size);
    out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    return p;
  }

  /// Expects load() to throw a runtime_error whose message contains every
  /// listed fragment (so diagnostics stay descriptive, not just nonzero).
  void expect_load_error(const std::string& file,
                         const std::vector<std::string>& fragments) {
    GptModel m(Config::tiny(), 2);
    try {
      m.load(file);
      FAIL() << "load(" << file << ") did not throw";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("GptModel::load"), std::string::npos) << msg;
      for (const auto& frag : fragments)
        EXPECT_NE(msg.find(frag), std::string::npos)
            << "missing '" << frag << "' in: " << msg;
    }
  }

  const testing::TempDir dir_;
};

TEST_F(CheckpointNegativeTest, EmptyFile) {
  // No footer → legacy fallback → the parser dies cleanly on EOF.
  expect_load_error(write_file("empty.ckpt", ""), {"truncated"});
}

TEST_F(CheckpointNegativeTest, FlippedPayloadByteFailsCrc) {
  std::string bytes = good_bytes();
  bytes[0] ^= 0x01;  // payload damage with the original footer kept
  expect_load_error(write_file("bitrot.ckpt", bytes), {"CRC mismatch"});
}

TEST_F(CheckpointNegativeTest, WrongMagic) {
  std::string payload = good_payload();
  payload[0] = 'X';
  payload[1] = 'Y';
  expect_load_error(write_sealed("magic.ckpt", payload),
                    {"bad magic", "not a PagPassGPT checkpoint"});
}

TEST_F(CheckpointNegativeTest, UnsupportedVersion) {
  std::string payload = good_payload();
  payload[4] = static_cast<char>(0x2a);  // version 42
  expect_load_error(write_sealed("version.ckpt", payload),
                    {"unsupported checkpoint version 42"});
}

TEST_F(CheckpointNegativeTest, TruncatedEverywhere) {
  const std::string bytes = good_bytes();
  // Cut inside the magic, the config block, the parameter table header,
  // a parameter name, the tensor payload, and the CRC footer — plus one
  // byte short. Every cut must be caught: payload cuts die in the parser
  // (the legacy fallback strips no safety there), and footer cuts trip
  // the trailing-bytes check on the intact payload ahead of them.
  const std::size_t cuts[] = {1,  3,  9,  17, 33, 40,
                              bytes.size() / 2, bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    expect_load_error(write_file("trunc.ckpt", bytes.substr(0, cut)), {});
  }
}

TEST_F(CheckpointNegativeTest, TruncatedPayloadWithReattachedFooter) {
  // Even a truncation that somehow preserves the 16 footer bytes (e.g. a
  // hole punched mid-file) is caught: the footer's size no longer matches.
  const std::string bytes = good_bytes();
  std::string holed = bytes.substr(0, bytes.size() / 2) +
                      bytes.substr(bytes.size() - durable::kFooterBytes);
  expect_load_error(write_file("holed.ckpt", holed), {"size mismatch"});
}

TEST_F(CheckpointNegativeTest, CorruptConfigBlock) {
  std::string payload = good_payload();
  // vocab is the first Index (int64) after magic+version at offset 8;
  // overwrite it with -1.
  for (int i = 0; i < 8; ++i) payload[8 + i] = static_cast<char>(0xff);
  expect_load_error(write_sealed("config.ckpt", payload),
                    {"corrupt config block"});
}

TEST_F(CheckpointNegativeTest, ConfigShapeMismatch) {
  const std::string p = path("shape.ckpt");
  GptModel small(Config::tiny(), 3);
  small.save(p);
  GptModel big(Config::bench(), 4);
  try {
    big.load(p);
    FAIL() << "shape-mismatched load did not throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("config mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("d_model=16"), std::string::npos) << msg;  // stored
    EXPECT_NE(msg.find("d_model=64"), std::string::npos) << msg;  // expected
  }
}

TEST_F(CheckpointNegativeTest, OversizedLengthField) {
  // Valid header and config, then a parameter-name length of 2^40 bytes:
  // the reader must refuse the implausible allocation rather than try it.
  const std::string p = path("oversize.ckpt");
  durable::atomic_save(p, [](BinaryWriter& w) {
    const Config c = Config::tiny();
    w.write<std::uint32_t>(0x50504721);  // "PPG!"
    w.write<std::uint32_t>(1);
    w.write(c.vocab);
    w.write(c.d_model);
    w.write(c.n_layers);
    w.write(c.n_heads);
    w.write(c.context);
    w.write(c.dropout);
    GptModel probe(c, 5);
    w.write<std::uint64_t>(probe.params().items().size());
    w.write<std::uint64_t>(1ULL << 40);  // absurd name length
  });
  expect_load_error(p, {"implausible length"});
}

TEST_F(CheckpointNegativeTest, TamperedTensorPayloadLength) {
  // A checkpoint whose first parameter claims more floats than the model
  // expects must fail by name, not read past its buffer.
  const std::string p = path("tamper.ckpt");
  durable::atomic_save(p, [](BinaryWriter& w) {
    const Config c = Config::tiny();
    w.write<std::uint32_t>(0x50504721);
    w.write<std::uint32_t>(1);
    w.write(c.vocab);
    w.write(c.d_model);
    w.write(c.n_layers);
    w.write(c.n_heads);
    w.write(c.context);
    w.write(c.dropout);
    GptModel probe(c, 6);
    const auto& items = probe.params().items();
    w.write<std::uint64_t>(items.size());
    w.write_string(items[0].name);
    w.write_vector(std::vector<float>(3, 0.5f));  // wrong element count
  });
  expect_load_error(p, {"values, model expects"});
}

// ---- serialize.h primitives ------------------------------------------

TEST(SerializeNegative, TruncatedScalarRead) {
  std::stringstream ss;
  ss.write("\x01\x02", 2);  // 2 of 8 bytes
  BinaryReader r(ss);
  EXPECT_THROW(r.read<std::uint64_t>(), std::runtime_error);
}

TEST(SerializeNegative, TruncatedStringBody) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write<std::uint64_t>(100);  // claims 100 bytes
  ss.write("abc", 3);           // delivers 3
  BinaryReader r(ss);
  EXPECT_THROW(r.read_string(), std::runtime_error);
}

TEST(SerializeNegative, TruncatedVectorBody) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write<std::uint64_t>(16);  // claims 16 floats
  const float payload[2] = {1.f, 2.f};
  ss.write(reinterpret_cast<const char*>(payload), sizeof payload);
  BinaryReader r(ss);
  EXPECT_THROW(r.read_vector<float>(), std::runtime_error);
}

TEST(SerializeNegative, ImplausibleVectorLength) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write<std::uint64_t>(1ULL << 62);
  BinaryReader r(ss);
  EXPECT_THROW(r.read_vector<float>(), std::runtime_error);
}

}  // namespace
}  // namespace ppg
