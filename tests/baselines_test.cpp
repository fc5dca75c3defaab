#include <algorithm>
#include <filesystem>
#include <unordered_set>

#include <gtest/gtest.h>

#include "baselines/markov.h"
#include "baselines/onehot.h"
#include "baselines/passflow.h"
#include "baselines/passgan.h"
#include "baselines/passgpt.h"
#include "baselines/vaepass.h"
#include "data/corpus.h"
#include "pcfg/pattern.h"
#include "test_util.h"

namespace ppg::baselines {
namespace {

const std::vector<std::string>& training_corpus() {
  static const std::vector<std::string>* corpus = [] {
    data::SiteProfile profile;
    profile.name = "baselinetest";
    profile.unique_target = 1200;
    auto* v = new std::vector<std::string>(
        data::clean(data::generate_site(profile, 27)).passwords);
    return v;
  }();
  return *corpus;
}

// ---- one-hot coding --------------------------------------------------------

TEST(OneHot, EncodeDecodeRoundTrip) {
  const auto e = encode_fixed("abc12");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->size(), static_cast<std::size_t>(kWidth));
  EXPECT_EQ(decode_fixed(*e), "abc12");
}

TEST(OneHot, PadsToWidth) {
  const auto e = encode_fixed("ab");
  ASSERT_TRUE(e.has_value());
  for (std::size_t i = 2; i < e->size(); ++i) EXPECT_EQ((*e)[i], kPadClass);
}

TEST(OneHot, RejectsBadInput) {
  EXPECT_FALSE(encode_fixed("").has_value());
  EXPECT_FALSE(encode_fixed("aaaaaaaaaaaaa").has_value());
  EXPECT_FALSE(encode_fixed("no space").has_value());
}

TEST(OneHot, DecodeTruncatesAtPad) {
  std::vector<int> classes(kWidth, kPadClass);
  classes[0] = char_class_index('x');
  classes[2] = char_class_index('y');  // unreachable after pad at [1]
  EXPECT_EQ(decode_fixed(classes), "x");
}

// ---- PassGPT ----------------------------------------------------------------

const PassGpt& shared_passgpt() {
  static const PassGpt* model = [] {
    auto* m = new PassGpt(gpt::Config::tiny(), 277);
    const auto& corpus = training_corpus();
    gpt::TrainConfig cfg;
    cfg.epochs = 4;
    cfg.batch_size = 32;
    cfg.lr = 2e-3f;
    m->train(corpus, {}, cfg);
    return m;
  }();
  return *model;
}

TEST(PassGpt, GeneratesDecodablePasswords) {
  Rng rng(1);
  const auto pws = shared_passgpt().generate(60, rng);
  EXPECT_GT(pws.size(), 20u);
  for (const auto& pw : pws) {
    EXPECT_FALSE(pw.empty());
    EXPECT_TRUE(std::all_of(pw.begin(), pw.end(), pcfg::in_universe));
  }
}

TEST(PassGpt, GuidedGenerationAlwaysConforms) {
  // The filtering approach guarantees conformance by construction.
  Rng rng(2);
  const auto pattern = *pcfg::parse_pattern("L5N2");
  const auto pws =
      shared_passgpt().generate_with_pattern(pattern, 40, rng);
  EXPECT_FALSE(pws.empty());
  for (const auto& pw : pws)
    EXPECT_TRUE(pcfg::matches_pattern(pw, pattern)) << pw;
}

TEST(PassGpt, TrainRejectsGarbage) {
  PassGpt m(gpt::Config::tiny(), 3);
  const std::vector<std::string> bad = {"", "p w"};
  gpt::TrainConfig cfg;
  EXPECT_THROW(m.train(bad, {}, cfg), std::invalid_argument);
}

// ---- Markov -----------------------------------------------------------------

TEST(Markov, ValidatesConstruction) {
  EXPECT_THROW(MarkovModel(0), std::invalid_argument);
  EXPECT_THROW(MarkovModel(9), std::invalid_argument);
  EXPECT_THROW(MarkovModel(2, 0.0), std::invalid_argument);
}

TEST(Markov, GuardsUntrainedUse) {
  MarkovModel m(2);
  Rng rng(4);
  EXPECT_THROW(m.sample(rng), std::logic_error);
  EXPECT_THROW(m.log_prob("abc"), std::logic_error);
}

TEST(Markov, SamplesInUniverse) {
  MarkovModel m(2);
  m.train(training_corpus());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::string s = m.sample(rng);
    EXPECT_TRUE(std::all_of(s.begin(), s.end(), pcfg::in_universe)) << s;
    EXPECT_LE(s.size(), 16u);
  }
}

TEST(Markov, LogProbHigherForTrainingLikeStrings) {
  MarkovModel m(3);
  m.train(training_corpus());
  // A training password should be far more probable than random junk.
  const std::string likely = training_corpus().front();
  EXPECT_GT(m.log_prob(likely), m.log_prob("q~Zp)#x9"));
}

TEST(Markov, LogProbRejectsOutOfUniverse) {
  MarkovModel m(2);
  m.train(training_corpus());
  EXPECT_LT(m.log_prob("has space"), -1e29);
}

TEST(Markov, GenerateCount) {
  MarkovModel m(2);
  m.train(training_corpus());
  Rng rng(6);
  EXPECT_EQ(m.generate(25, rng).size(), 25u);
}

// ---- PassGAN ------------------------------------------------------------------

TEST(PassGan, TrainsAndGenerates) {
  PassGanConfig cfg;
  cfg.steps = 60;  // smoke-level adversarial training
  cfg.batch = 32;
  PassGan gan(cfg, 7);
  EXPECT_THROW(
      {
        Rng rng(8);
        gan.generate(5, rng);
      },
      std::logic_error);
  gan.train(training_corpus());
  EXPECT_TRUE(gan.trained());
  Rng rng(9);
  const auto pws = gan.generate(50, rng);
  EXPECT_EQ(pws.size(), 50u);
  for (const auto& pw : pws) {
    EXPECT_LE(pw.size(), static_cast<std::size_t>(kWidth));
    EXPECT_TRUE(std::all_of(pw.begin(), pw.end(), pcfg::in_universe)) << pw;
  }
}

TEST(PassGan, CriticWeightsStayClipped) {
  PassGanConfig cfg;
  cfg.steps = 10;
  cfg.batch = 16;
  PassGan gan(cfg, 10);
  gan.train(training_corpus());
  // Indirect check: training finished without blow-up and wdist is finite.
  EXPECT_TRUE(std::isfinite(gan.last_wdist()));
}

// ---- VAEPass -------------------------------------------------------------------

TEST(VaePass, LossDecreasesAcrossEpochs) {
  VaePassConfig cfg;
  cfg.epochs = 3;
  cfg.batch = 32;
  VaePass vae(cfg, 11);
  vae.train(training_corpus());
  EXPECT_TRUE(vae.trained());
  EXPECT_GT(vae.last_loss(), 0.0);
  EXPECT_LT(vae.last_loss(), std::log(double(kClasses)) * 2.0);
}

TEST(VaePass, GeneratesFixedWidthPasswords) {
  VaePassConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 32;
  VaePass vae(cfg, 12);
  vae.train(training_corpus());
  Rng rng(13);
  const auto pws = vae.generate(40, rng);
  EXPECT_EQ(pws.size(), 40u);
  for (const auto& pw : pws)
    EXPECT_LE(pw.size(), static_cast<std::size_t>(kWidth));
}

TEST(VaePass, UntrainedGenerateThrows) {
  VaePass vae({}, 14);
  Rng rng(15);
  EXPECT_THROW(vae.generate(1, rng), std::logic_error);
}

// ---- PassFlow -------------------------------------------------------------------

TEST(PassFlow, NllDecreasesOverTraining) {
  PassFlowConfig c1;
  c1.epochs = 1;
  PassFlowConfig c4 = c1;
  c4.epochs = 5;
  PassFlow short_run(c1, 16), long_run(c4, 16);
  short_run.train(training_corpus());
  long_run.train(training_corpus());
  EXPECT_LT(long_run.last_nll(), short_run.last_nll());
}

TEST(PassFlow, InverseIsConsistentWithForward) {
  // Sampling then (conceptually) re-encoding: the inverse of the flow must
  // produce in-range continuous values that decode to width-bounded
  // passwords.
  PassFlowConfig cfg;
  cfg.epochs = 2;
  PassFlow flow(cfg, 17);
  flow.train(training_corpus());
  Rng rng(18);
  const auto pws = flow.generate(60, rng);
  EXPECT_EQ(pws.size(), 60u);
  for (const auto& pw : pws)
    EXPECT_LE(pw.size(), static_cast<std::size_t>(kWidth));
}

TEST(PassGan, SaveLoadRoundTrip) {
  PassGanConfig cfg;
  cfg.steps = 5;
  cfg.batch = 16;
  PassGan a(cfg, 30);
  a.train(training_corpus());
  const testing::TempDir dir;
  const auto path = dir.file("gan.ckpt");
  a.save(path);
  PassGan b(cfg, 31);
  b.load(path);
  Rng r1(32), r2(32);
  EXPECT_EQ(a.generate(20, r1), b.generate(20, r2));
}

TEST(VaePass, SaveLoadRoundTrip) {
  VaePassConfig cfg;
  cfg.epochs = 1;
  VaePass a(cfg, 33);
  a.train(training_corpus());
  const testing::TempDir dir;
  const auto path = dir.file("vae.ckpt");
  a.save(path);
  VaePass b(cfg, 34);
  b.load(path);
  Rng r1(35), r2(35);
  EXPECT_EQ(a.generate(20, r1), b.generate(20, r2));
}

TEST(PassFlow, SaveLoadRoundTrip) {
  PassFlowConfig cfg;
  cfg.epochs = 1;
  PassFlow a(cfg, 36);
  a.train(training_corpus());
  const testing::TempDir dir;
  const auto path = dir.file("flow.ckpt");
  a.save(path);
  PassFlow b(cfg, 37);
  b.load(path);
  Rng r1(38), r2(38);
  EXPECT_EQ(a.generate(20, r1), b.generate(20, r2));
}

TEST(PassFlow, LoadRejectsConfigMismatch) {
  PassFlowConfig cfg;
  cfg.epochs = 1;
  PassFlow a(cfg, 39);
  a.train(training_corpus());
  const testing::TempDir dir;
  const auto path = dir.file("flow2.ckpt");
  a.save(path);
  PassFlowConfig other = cfg;
  other.couplings = 6;
  PassFlow b(other, 40);
  EXPECT_THROW(b.load(path), std::runtime_error);
}

TEST(Markov, EnumerateApproximatelyDescendingProbability) {
  // enumerate() scores with the same smoothed transition probabilities as
  // log_prob() (pruning unseen transitions), so the order is exactly
  // descending in model score.
  MarkovModel m(2);
  m.train(training_corpus());
  const auto out = m.enumerate(200);
  ASSERT_GT(out.size(), 100u);
  double prev = 1e9;
  for (const auto& pw : out) {
    const double lp = m.log_prob(pw);
    EXPECT_LE(lp, prev + 1e-6) << pw;
    prev = std::min(prev, lp);
  }
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < 50; ++i) {
    head += m.log_prob(out[i]);
    tail += m.log_prob(out[out.size() - 1 - i]);
  }
  EXPECT_GT(head, tail + 10.0);
}

TEST(Markov, EnumerateIsDuplicateFree) {
  MarkovModel m(2);
  m.train(training_corpus());
  const auto out = m.enumerate(300);
  std::unordered_set<std::string> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), out.size());
}

TEST(Markov, EnumerateFindsCommonTrainingPasswords) {
  MarkovModel m(3);
  m.train(training_corpus());
  const auto out = m.enumerate(2000);
  const std::unordered_set<std::string> set(out.begin(), out.end());
  // At least some training passwords appear in the top guesses.
  std::size_t found = 0;
  for (const auto& pw : training_corpus())
    if (set.contains(pw)) ++found;
  EXPECT_GT(found, 10u);
}

TEST(PassFlow, RejectsZeroCouplings) {
  PassFlowConfig cfg;
  cfg.couplings = 0;
  EXPECT_THROW(PassFlow(cfg, 19), std::invalid_argument);
}

}  // namespace
}  // namespace ppg::baselines
