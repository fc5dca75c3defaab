#include "core/pagpassgpt.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "data/corpus.h"
#include "test_util.h"

namespace ppg::core {
namespace {

/// One tiny trained PagPassGPT shared across the suite (training is the
/// expensive part; tests only read from it).
const PagPassGPT& shared_model() {
  static const PagPassGPT* model = [] {
    auto* m = new PagPassGPT(gpt::Config::small(), 77);
    // ctest runs every TEST in its own process; cache the trained fixture
    // on disk so only the first one pays for training.
    const auto cache = std::filesystem::temp_directory_path() /  // ppg-lint: allow(fixed-temp-path) fixture-model cache shared across test processes on purpose
                       "ppg_fixture_pagtest_v1.ckpt";
    try {
      m->load(cache.string());
      return m;
    } catch (const std::exception&) {
    }
    data::SiteProfile profile;
    profile.name = "pagtest";
    profile.unique_target = 2500;
    const auto corpus = data::clean(data::generate_site(profile, 7));
    const auto split = data::split_712(corpus.passwords, 7);
    gpt::TrainConfig cfg;
    cfg.epochs = 10;
    cfg.batch_size = 64;
    cfg.lr = 2e-3f;
    m->train(split.train, split.valid, cfg);
    m->save(cache.string());
    return m;
  }();
  return *model;
}

TEST(PagPassGPT, UntrainedGuards) {
  PagPassGPT m(gpt::Config::tiny(), 1);
  EXPECT_FALSE(m.trained());
  EXPECT_THROW(m.patterns(), std::logic_error);
  EXPECT_THROW(m.save("/tmp/x"), std::logic_error);  // ppg-lint: allow(fixed-temp-path) throws before writing
}

TEST(PagPassGPT, TrainRejectsGarbageCorpus) {
  PagPassGPT m(gpt::Config::tiny(), 2);
  const std::vector<std::string> bad = {"", "has space", "p\xc3\xa4ss"};
  gpt::TrainConfig cfg;
  cfg.epochs = 1;
  EXPECT_THROW(m.train(bad, {}, cfg), std::invalid_argument);
}

TEST(PagPassGPT, PatternsReflectTrainingCorpus) {
  const auto& m = shared_model();
  EXPECT_TRUE(m.trained());
  const auto& patterns = m.patterns();
  EXPECT_GT(patterns.distinct(), 5u);
  // The generator's dominant habits put letter+digit patterns on top.
  double total = 0.0;
  for (const auto& [pat, prob] : patterns.top_k(10)) total += prob;
  EXPECT_GT(total, 0.3);
}

TEST(PagPassGPT, TrainTwiceThrows) {
  const auto& m = shared_model();
  auto& mutable_m = const_cast<PagPassGPT&>(m);
  gpt::TrainConfig cfg;
  const std::vector<std::string> pws = {"abcd1"};
  EXPECT_THROW(mutable_m.train(pws, {}, cfg), std::logic_error);
}

TEST(PagPassGPT, StrictPatternGenerationConforms) {
  const auto& m = shared_model();
  Rng rng(3);
  const auto pattern = *pcfg::parse_pattern("L4N2");
  const auto pws = m.generate_with_pattern(pattern, 50, rng, {}, true);
  EXPECT_FALSE(pws.empty());
  for (const auto& pw : pws)
    EXPECT_TRUE(pcfg::matches_pattern(pw, pattern)) << pw;
}

TEST(PagPassGPT, UnstrictGenerationMostlyConforms) {
  // The paper's claim: conditioning alone keeps generations on-pattern
  // most of the time (no hard filter).
  const auto& m = shared_model();
  Rng rng(4);
  const auto pattern = *pcfg::parse_pattern("L4N2");
  const auto pws = m.generate_with_pattern(pattern, 100, rng, {}, false);
  ASSERT_GT(pws.size(), 30u);
  std::size_t conforming = 0;
  for (const auto& pw : pws)
    if (pcfg::matches_pattern(pw, pattern)) ++conforming;
  EXPECT_GT(double(conforming) / double(pws.size()), 0.5);
}

TEST(PagPassGPT, FreeGenerationProducesDecodablePasswords) {
  const auto& m = shared_model();
  Rng rng(5);
  gpt::SampleStats stats;
  const auto pws = m.generate_free(60, rng, {}, &stats);
  EXPECT_GT(pws.size(), 20u);
  for (const auto& pw : pws) {
    EXPECT_FALSE(pw.empty());
    // An undertrained model can overrun the cleaning length; such guesses
    // are wasted budget, but they must stay within the context window.
    EXPECT_LE(pw.size(), 29u);
  }
}

TEST(PagPassGPT, SaveLoadRoundTrip) {
  const auto& m = shared_model();
  const testing::TempDir dir;
  const auto path = dir.file("pag.ckpt");
  m.save(path);
  PagPassGPT loaded(gpt::Config::small(), 999);
  loaded.load(path);
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.patterns().total(), m.patterns().total());
  // Identical generations under identical RNG.
  Rng r1(6), r2(6);
  const auto pattern = *pcfg::parse_pattern("L4N2");
  EXPECT_EQ(m.generate_with_pattern(pattern, 10, r1, {}, true),
            loaded.generate_with_pattern(pattern, 10, r2, {}, true));
}

TEST(PagPassGPT, LogProbScoresPasswords) {
  const auto& m = shared_model();
  // Encodable passwords get finite negative scores.
  const double lp = m.log_prob("love12");
  EXPECT_LT(lp, 0.0);
  EXPECT_GT(lp, -1e4);
  // Unencodable passwords are effectively impossible.
  EXPECT_LT(m.log_prob("has space"), -1e29);
  EXPECT_LT(m.log_prob(""), -1e29);
  // A corpus-typical password outscores uniform junk of the same length.
  EXPECT_GT(m.log_prob("love12"), m.log_prob("qZ)~9w"));
}

TEST(PagPassGPT, GenerationDeterministicPerSeed) {
  const auto& m = shared_model();
  const auto pattern = *pcfg::parse_pattern("L4N2");
  Rng r1(7), r2(7), r3(8);
  const auto a = m.generate_with_pattern(pattern, 15, r1, {}, true);
  const auto b = m.generate_with_pattern(pattern, 15, r2, {}, true);
  const auto c = m.generate_with_pattern(pattern, 15, r3, {}, true);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace ppg::core
