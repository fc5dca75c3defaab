// Tests for the perf-trajectory recorder (src/obs/bench_track.h): record
// JSON round-trip, config fingerprinting, NDJSON append/load with torn-tail
// and schema-skew tolerance, and trajectory path conventions.
#include "obs/bench_track.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "test_util.h"

namespace obs = ppg::obs;
namespace {

class BenchTrackTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return dir_.file(name); }

  static obs::BenchRecord sample(double scale = 1.0) {
    obs::BenchRecord rec;
    rec.bench = "bench_kv_cache";
    rec.commit = "abc123";
    rec.build = "gcc-13.2 release fast-math";
    rec.host = "host-a";
    rec.time_utc = "2026-08-07T00:00:00Z";
    rec.config = {{"kv.model", "tiny"}, {"kv.total", "2000"}};
    rec.config_fp = obs::bench_config_fingerprint(rec.config);
    rec.metrics = {{"kv.reduction_pct", 26.8 * scale},
                   {"kv.guesses_per_sec", 35000.0 * scale}};
    return rec;
  }

  const ppg::testing::TempDir dir_;
};

TEST_F(BenchTrackTest, JsonRoundTripPreservesEveryField) {
  const obs::BenchRecord rec = sample();
  const std::string json = obs::bench_record_to_json(rec);
  std::string error;
  const auto back = obs::parse_bench_record(json, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->schema, obs::kBenchRecordSchema);
  EXPECT_EQ(back->bench, rec.bench);
  EXPECT_EQ(back->commit, rec.commit);
  EXPECT_EQ(back->build, rec.build);
  EXPECT_EQ(back->host, rec.host);
  EXPECT_EQ(back->time_utc, rec.time_utc);
  EXPECT_EQ(back->config_fp, rec.config_fp);
  EXPECT_EQ(back->config, rec.config);
  EXPECT_EQ(back->metrics, rec.metrics);
  // One line, no embedded newline — the NDJSON invariant.
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST_F(BenchTrackTest, ParseRejectsMalformedAndFutureSchema) {
  std::string error;
  EXPECT_FALSE(obs::parse_bench_record("{truncated", &error).has_value());
  EXPECT_FALSE(obs::parse_bench_record("[1,2,3]", &error).has_value());
  EXPECT_FALSE(obs::parse_bench_record("{\"bench\":\"x\"}", &error)
                   .has_value());  // missing schema
  EXPECT_FALSE(
      obs::parse_bench_record("{\"schema\":1}", &error).has_value());
  // A future schema is skipped, never misread.
  EXPECT_FALSE(obs::parse_bench_record(
                   "{\"schema\":99,\"bench\":\"bench_x\"}", &error)
                   .has_value());
  EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST_F(BenchTrackTest, FingerprintIgnoresVolatileKeysOnly) {
  std::map<std::string, std::string> base = {{"kv.model", "tiny"},
                                             {"kv.total", "2000"}};
  const std::string fp = obs::bench_config_fingerprint(base);

  // Volatile keys (output paths, cache location, RNG stream) do not shift
  // the fingerprint...
  auto noisy = base;
  noisy["cache_dir"] = "/tmp/elsewhere";  // ppg-lint: allow(fixed-temp-path) a config value, never written
  noisy["report"] = "out.json";
  noisy["track_dir"] = ".";
  noisy["fresh"] = "true";
  noisy["seed"] = "31337";
  EXPECT_EQ(obs::bench_config_fingerprint(noisy), fp);

  // ...but any key that shapes the measured work does.
  auto changed = base;
  changed["kv.total"] = "4000";
  EXPECT_NE(obs::bench_config_fingerprint(changed), fp);
  auto extra = base;
  extra["kv.threads"] = "2";
  EXPECT_NE(obs::bench_config_fingerprint(extra), fp);
}

TEST_F(BenchTrackTest, MakeRecordFillsIdentityFields) {
  const auto rec =
      obs::make_bench_record("bench_x", {{"a", "1"}}, {{"m_ms", 2.0}});
  EXPECT_EQ(rec.schema, obs::kBenchRecordSchema);
  EXPECT_FALSE(rec.build.empty());
  EXPECT_FALSE(rec.host.empty());
  EXPECT_FALSE(rec.commit.empty());
  EXPECT_FALSE(rec.time_utc.empty());
  EXPECT_EQ(rec.config_fp, obs::bench_config_fingerprint(rec.config));
}

TEST_F(BenchTrackTest, CommitHonoursEnvOverride) {
  ::setenv("PPG_COMMIT", "deadbeef", 1);
  EXPECT_EQ(obs::bench_git_commit(), "deadbeef");
  ::unsetenv("PPG_COMMIT");
}

TEST_F(BenchTrackTest, AppendAndLoadRoundTrip) {
  const std::string traj = path("BENCH_kv_cache.json");
  ASSERT_TRUE(obs::append_trajectory(traj, sample(1.0)));
  ASSERT_TRUE(obs::append_trajectory(traj, sample(2.0)));
  const auto loaded = obs::load_trajectory(traj);
  EXPECT_EQ(loaded.skipped, 0u);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.records[0].metrics.at("kv.reduction_pct"), 26.8);
  EXPECT_DOUBLE_EQ(loaded.records[1].metrics.at("kv.reduction_pct"), 53.6);
}

TEST_F(BenchTrackTest, MissingFileIsEmptyTrajectory) {
  const auto loaded = obs::load_trajectory(path("nope.json"));
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.skipped, 0u);
}

TEST_F(BenchTrackTest, TornTailIsSkippedOnLoadAndDroppedOnAppend) {
  const std::string traj = path("BENCH_torn.json");
  ASSERT_TRUE(obs::append_trajectory(traj, sample(1.0)));
  ASSERT_TRUE(obs::append_trajectory(traj, sample(2.0)));
  // Simulate a crash mid-append / truncated copy: cut into the last line.
  {
    std::string content;
    {
      std::ifstream in(traj, std::ios::binary);
      content.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::ofstream out(traj, std::ios::binary | std::ios::trunc);
    out << content.substr(0, content.size() - 25);
  }
  const auto torn = obs::load_trajectory(traj);
  EXPECT_EQ(torn.records.size(), 1u);
  EXPECT_EQ(torn.skipped, 1u);

  // The next append heals the file: torn tail gone, new record present.
  ASSERT_TRUE(obs::append_trajectory(traj, sample(3.0)));
  const auto healed = obs::load_trajectory(traj);
  EXPECT_EQ(healed.skipped, 0u);
  ASSERT_EQ(healed.records.size(), 2u);
  EXPECT_DOUBLE_EQ(healed.records[1].metrics.at("kv.reduction_pct"),
                   26.8 * 3.0);
}

TEST_F(BenchTrackTest, ForeignCompleteLinesArePreservedButSkipped) {
  const std::string traj = path("BENCH_skew.json");
  ASSERT_TRUE(obs::append_trajectory(traj, sample(1.0)));
  const std::string future =
      "{\"schema\":99,\"bench\":\"bench_kv_cache\",\"novel\":true}";
  {
    std::ofstream out(traj, std::ios::binary | std::ios::app);
    out << future << "\n";
  }
  // Skipped by load...
  const auto loaded = obs::load_trajectory(traj);
  EXPECT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.skipped, 1u);
  // ...but byte-for-byte preserved across an append by this (old) binary.
  ASSERT_TRUE(obs::append_trajectory(traj, sample(2.0)));
  std::string content;
  {
    std::ifstream in(traj, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  EXPECT_NE(content.find(future), std::string::npos);
  const auto after = obs::load_trajectory(traj);
  EXPECT_EQ(after.records.size(), 2u);
  EXPECT_EQ(after.skipped, 1u);
}

TEST_F(BenchTrackTest, TrajectoryPathStripsBenchPrefix) {
  EXPECT_EQ(obs::trajectory_path(".", "bench_kv_cache"),
            "BENCH_kv_cache.json");
  EXPECT_EQ(obs::trajectory_path("", "bench_micro_nn"),
            "BENCH_micro_nn.json");
  EXPECT_EQ(obs::trajectory_path("/x/y", "serve_throughput"),
            "/x/y/BENCH_serve_throughput.json");
}

TEST_F(BenchTrackTest, NonFiniteMetricsAreDroppedOnParse) {
  // The writer only ever emits finite doubles, but a foreign line could
  // carry anything the JSON grammar allows; Infinity/NaN are not JSON, so
  // the closest hostile input is a huge exponent that overflows to inf.
  const std::string line =
      "{\"schema\":1,\"bench\":\"bench_x\",\"metrics\":{\"bad\":1e999,"
      "\"good\":2.0}}";
  const auto rec = obs::parse_bench_record(line);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->metrics.count("bad"), 0u);
  EXPECT_DOUBLE_EQ(rec->metrics.at("good"), 2.0);
}

}  // namespace
