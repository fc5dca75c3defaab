// KV-cache test suite (DESIGN.md §10): trie-store properties (shared
// ownership, LRU eviction, byte budget), the KvBudget hold, snapshot/seat
// bitwise equivalence against prime()/step(), and the differential
// determinism suite — dc_generate holding parent snapshots must be
// byte-identical to holding none for any seed, thread count, and byte
// budget (including budgets too small to hold a single snapshot).
#include "gpt/kv_cache.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dcgen.h"
#include "gpt/infer.h"
#include "gpt/model.h"
#include "obs/metrics.h"
#include "pcfg/pattern.h"
#include "pcfg/pcfg_model.h"
#include "tokenizer/tokenizer.h"

namespace ppg::gpt {
namespace {

/// A small synthetic KvState with recognisable contents.
KvState make_state(Index len, int layers, Index d, Index vocab, float base) {
  KvState s;
  s.len = len;
  s.k.resize(static_cast<std::size_t>(layers));
  s.v.resize(static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    s.k[static_cast<std::size_t>(l)].assign(
        static_cast<std::size_t>(len * d), base + float(l));
    s.v[static_cast<std::size_t>(l)].assign(
        static_cast<std::size_t>(len * d), base - float(l));
  }
  s.logits.assign(static_cast<std::size_t>(vocab), base * 2.f);
  return s;
}

TEST(KvTrieCache, InsertFindRoundTrip) {
  KvTrieCache cache(std::size_t(1) << 20);
  const std::vector<int> p = {3, 7, 11};
  EXPECT_EQ(cache.find_longest(p), nullptr);
  cache.insert(p, make_state(3, 2, 4, 8, 1.f));
  const auto h = cache.find_longest(p);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->len, 3);
  EXPECT_EQ(h->k[0][0], 1.f);
  EXPECT_EQ(h->v[1][0], 0.f);
  EXPECT_EQ(cache.nodes(), 1u);
  EXPECT_EQ(cache.bytes(), h->bytes());
}

TEST(KvTrieCache, FindLongestReturnsDeepestAncestor) {
  KvTrieCache cache(std::size_t(1) << 20);
  cache.insert(std::vector<int>{1}, make_state(1, 1, 2, 4, 1.f));
  cache.insert(std::vector<int>{1, 2, 3}, make_state(3, 1, 2, 4, 3.f));
  const std::vector<int> query = {1, 2, 3, 4, 5};
  const auto h = cache.find_longest(query);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->len, 3);
  EXPECT_EQ(h->k[0][0], 3.f);
  // A query sharing only the first token resolves to the depth-1 state.
  const auto h1 = cache.find_longest(std::vector<int>{1, 9});
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h1->len, 1);
  // No shared prefix at all: null.
  EXPECT_EQ(cache.find_longest(std::vector<int>{2, 3}), nullptr);
}

TEST(KvTrieCache, FirstInsertWins) {
  KvTrieCache cache(std::size_t(1) << 20);
  const std::vector<int> p = {5, 6};
  cache.insert(p, make_state(2, 1, 2, 4, 1.f));
  const std::size_t bytes = cache.bytes();
  cache.insert(p, make_state(2, 1, 2, 4, 99.f));
  EXPECT_EQ(cache.nodes(), 1u);
  EXPECT_EQ(cache.bytes(), bytes);
  const auto h = cache.find_longest(p);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->k[0][0], 1.f);  // the original survived
}

TEST(KvTrieCache, BudgetRespectedWhenUnpinned) {
  const std::size_t unit = make_state(2, 1, 4, 8, 0.f).bytes();
  KvTrieCache cache(2 * unit + unit / 2);
  for (int i = 0; i < 10; ++i)
    cache.insert(std::vector<int>{i}, make_state(2, 1, 4, 8, float(i)));
  EXPECT_LE(cache.bytes(), cache.max_bytes);
  EXPECT_LE(cache.nodes(), 2u);
  EXPECT_GE(cache.nodes(), 1u);
}

TEST(KvTrieCache, ZeroBudgetDegradesToNoCaching) {
  KvTrieCache cache(0);
  cache.insert(std::vector<int>{1, 2}, make_state(2, 1, 2, 4, 1.f));
  EXPECT_EQ(cache.nodes(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.find_longest(std::vector<int>{1, 2}), nullptr);
}

/// Bitwise equality of two states' payloads.
bool same_bits(const KvState& a, const KvState& b) {
  const auto eq = [](const std::vector<float>& x,
                     const std::vector<float>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
  };
  if (a.len != b.len || a.k.size() != b.k.size() || a.v.size() != b.v.size())
    return false;
  for (std::size_t l = 0; l < a.k.size(); ++l)
    if (!eq(a.k[l], b.k[l]) || !eq(a.v[l], b.v[l])) return false;
  return eq(a.logits, b.logits);
}

TEST(KvTrieCache, EvictedStateStaysReadableWhileHeld) {
  const std::size_t unit = make_state(2, 1, 4, 8, 0.f).bytes();
  KvTrieCache cache(unit);  // room for exactly one state
  const KvState want = make_state(2, 1, 4, 8, 7.f);
  cache.insert(std::vector<int>{1}, want);
  auto held = cache.find_longest(std::vector<int>{1});
  ASSERT_NE(held, nullptr);
  // Flood with inserts: the first evicts {1} from the trie (and each later
  // one its predecessor), so the budget holds while a reader keeps the
  // evicted state.
  for (int i = 10; i < 20; ++i) {
    cache.insert(std::vector<int>{i}, make_state(2, 1, 4, 8, float(i)));
    EXPECT_LE(cache.bytes(), cache.max_bytes);
  }
  EXPECT_EQ(cache.find_longest(std::vector<int>{1}), nullptr);
  EXPECT_EQ(cache.nodes(), 1u);
  // The reader's state is untouched (ASan would flag a freed read).
  EXPECT_TRUE(same_bits(*held, want));
  EXPECT_EQ(held.use_count(), 1);  // the trie's reference is gone
  held.reset();
}

TEST(KvTrieCache, LruEvictsLeastRecentlyUsed) {
  const std::size_t unit = make_state(1, 1, 4, 8, 0.f).bytes();
  KvTrieCache cache(2 * unit);
  cache.insert(std::vector<int>{1}, make_state(1, 1, 4, 8, 1.f));
  cache.insert(std::vector<int>{2}, make_state(1, 1, 4, 8, 2.f));
  cache.find_longest(std::vector<int>{1});  // touch 1 -> MRU
  cache.insert(std::vector<int>{3}, make_state(1, 1, 4, 8, 3.f));
  EXPECT_NE(cache.find_longest(std::vector<int>{1}), nullptr);
  EXPECT_EQ(cache.find_longest(std::vector<int>{2}), nullptr);  // the victim
  EXPECT_NE(cache.find_longest(std::vector<int>{3}), nullptr);
}

TEST(KvTrieCache, MetricsTrackHitsMissesEvictions) {
  auto& m = kv_cache_metrics();
  const auto hits0 = m.hits.value();
  const auto misses0 = m.misses.value();
  const auto evicted0 = m.evictions.value();
  const std::size_t unit = make_state(1, 1, 4, 8, 0.f).bytes();
  KvTrieCache cache(unit);
  cache.find_longest(std::vector<int>{1});  // miss
  cache.insert(std::vector<int>{1}, make_state(1, 1, 4, 8, 1.f));
  cache.find_longest(std::vector<int>{1});  // hit
  cache.insert(std::vector<int>{2}, make_state(1, 1, 4, 8, 2.f));  // evicts
  EXPECT_GE(m.hits.value(), hits0 + 1);
  EXPECT_GE(m.misses.value(), misses0 + 1);
  EXPECT_GE(m.evictions.value(), evicted0 + 1);
}

// Concurrency smoke for the TSan job (`sanitize` label): threads hammer a
// budget-constrained cache with overlapping prefixes, reading the states
// they hold while other threads force eviction around them.
TEST(KvTrieCache, ConcurrentInsertFindEvictStress) {
  const std::size_t unit = make_state(2, 2, 8, 16, 0.f).bytes();
  KvTrieCache cache(6 * unit);
  std::vector<std::thread> threads;  // test-only; prod code uses ThreadPool
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 300; ++i) {
        const std::vector<int> prefix = {i % 7, (i + t) % 5};
        if (i % 3 == 0) {
          cache.insert(prefix, make_state(2, 2, 8, 16, float(i % 7)));
        } else {
          const auto h = cache.find_longest(prefix);
          if (h) {
            // Read through the reference; eviction must never free this.
            volatile float sink = h->k[0][0];
            (void)sink;
            EXPECT_LE(h->len, 2);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.bytes(), cache.max_bytes);
}

TEST(KvBudget, HoldsUpToCapAndGivesBytesBack) {
  auto& resident = kv_cache_metrics().bytes;
  const double resident0 = resident.value();
  const std::size_t unit = make_state(2, 1, 4, 8, 0.f).bytes();
  KvBudget budget(2 * unit + unit / 2);
  auto a = budget.hold(make_state(2, 1, 4, 8, 1.f));
  auto b = budget.hold(make_state(2, 1, 4, 8, 2.f));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(budget.held(), 2 * unit);
  EXPECT_EQ(resident.value(), resident0 + double(2 * unit));
  // A third would pass the cap: refused, nothing counted.
  EXPECT_EQ(budget.hold(make_state(2, 1, 4, 8, 3.f)), nullptr);
  EXPECT_EQ(budget.held(), 2 * unit);
  // Bytes come back only when the last holder lets go.
  auto a2 = a;
  a.reset();
  EXPECT_EQ(budget.held(), 2 * unit);
  a2.reset();
  EXPECT_EQ(budget.held(), unit);
  EXPECT_NE(budget.hold(make_state(2, 1, 4, 8, 4.f)), nullptr);  // freed
  b.reset();
  EXPECT_EQ(budget.held(), 0u);
  EXPECT_EQ(resident.value(), resident0);
  KvBudget none(0);
  EXPECT_EQ(none.hold(make_state(1, 1, 2, 4, 1.f)), nullptr);
}

/// Shared random-init tiny model (weights don't matter for bitwise
/// equivalence properties; strict masks keep dcgen outputs decodable).
const GptModel& test_model() {
  static const GptModel model(Config::tiny(), 33);
  return model;
}

std::vector<int> test_prefix() {
  const auto segs = *pcfg::parse_pattern("L4N2");
  return tok::Tokenizer::encode_generation_prefix(segs);
}

/// Seats `rows` rows at the end of `prefix`, each resuming from `snap`.
void seat_all(InferenceSession& s, std::span<const int> prefix, Index rows,
              const KvState& snap) {
  const std::vector<std::span<const int>> prefixes(
      static_cast<std::size_t>(rows), prefix);
  const std::vector<const KvState*> states(static_cast<std::size_t>(rows),
                                           &snap);
  s.seat(prefixes, states);
}

TEST(KvSessionResume, FullDepthResumeRestoresLogitsBitwise) {
  const auto& model = test_model();
  const auto prefix = test_prefix();
  InferenceSession ref(model);
  ref.reset(1);
  ref.prime(prefix);
  const auto ref_logits = ref.logits_row(0);
  const KvState snap = ref.snapshot(0);
  EXPECT_EQ(snap.len, static_cast<Index>(prefix.size()));

  InferenceSession resumed(model);
  seat_all(resumed, prefix, 3, snap);  // fan one snapshot out to 3 rows
  for (Index r = 0; r < 3; ++r) {
    const auto got = resumed.logits_row(r);
    EXPECT_TRUE(std::equal(ref_logits.begin(), ref_logits.end(), got.begin()))
        << "row " << r;
  }
}

TEST(KvSessionResume, ResumedStepMatchesPrimedStepBitwise) {
  const auto& model = test_model();
  const auto prefix = test_prefix();
  InferenceSession ref(model);
  ref.reset(2);
  ref.prime(prefix);
  KvState snap = ref.snapshot(1);

  InferenceSession resumed(model);
  seat_all(resumed, prefix, 2, snap);
  // Continue decoding the same token on both sessions: the KV restored
  // from the snapshot must behave exactly like the KV the session built.
  const std::vector<int> next = {prefix.back(), prefix.back()};
  ref.step(next);
  resumed.step(next);
  for (Index r = 0; r < 2; ++r) {
    const auto a = ref.logits_row(r);
    const auto b = resumed.logits_row(r);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "row " << r;
  }
}

TEST(KvSessionResume, PartialDepthResumePlusPrimeMatchesFullPrime) {
  const auto& model = test_model();
  const auto prefix = test_prefix();
  ASSERT_GE(prefix.size(), 3u);
  const std::size_t cut = prefix.size() / 2;

  InferenceSession ref(model);
  ref.reset(1);
  ref.prime(prefix);
  const auto want = ref.logits_row(0);

  InferenceSession half(model);
  half.reset(1);
  half.prime(std::span<const int>(prefix).subspan(0, cut));
  const KvState snap = half.snapshot(0);

  InferenceSession resumed(model);
  seat_all(resumed, prefix, 1, snap);  // restores `cut`, steps the rest
  const auto got = resumed.logits_row(0);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
}

TEST(KvSessionResume, ResumeRowsMixedStatesMatchPerRowReference) {
  const auto& model = test_model();
  const auto pa = test_prefix();
  auto pb = pa;
  pb.back() = pa.front();  // a second, different prefix of equal length
  // A third prefix of a different length.
  const auto pc = tok::Tokenizer::encode_generation_prefix(
      *pcfg::parse_pattern("L2N1S1L3"));
  ASSERT_NE(pc.size(), pa.size());

  /// Snapshot of `prefix`'s first `depth` positions.
  const auto snap_at = [&](const std::vector<int>& prefix, std::size_t depth) {
    InferenceSession s(model);
    s.reset(1);
    s.prime(std::span<const int>(prefix).first(depth));
    return s.snapshot(0);
  };
  const KvState snap_a = snap_at(pa, pa.size());  // whole prefix + logits
  const KvState snap_b = snap_at(pb, 2);
  const KvState snap_c = snap_at(pc, pc.size() - 1);

  // Rows resume from states at different depths (one from none at all).
  std::vector<const std::vector<int>*> rows = {&pa, &pb, &pc, &pa, &pb};
  const std::vector<const KvState*> states = {&snap_a, &snap_b, &snap_c,
                                              &snap_a, nullptr};
  std::vector<std::span<const int>> prefixes;
  for (const auto* r : rows) prefixes.emplace_back(*r);
  InferenceSession mixed(model);
  mixed.seat(prefixes, states);

  // Each row's batch-1 reference steps its whole prefix from position 0.
  std::vector<InferenceSession> refs;
  refs.reserve(rows.size());
  for (const auto* r : rows) {
    refs.emplace_back(model);
    refs.back().reset(1);
    refs.back().prime(*r);
  }
  const auto expect_rows_match = [&](const char* when) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto want = refs[i].logits_row(0);
      const auto got = mixed.logits_row(static_cast<Index>(i));
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
          << "row " << i << " " << when;
      EXPECT_EQ(mixed.position(static_cast<Index>(i)), refs[i].position(0))
          << "row " << i << " " << when;
    }
  };
  expect_rows_match("after seat");

  // Row 1 sits one step out: it keeps its position and logits while every
  // live row advances exactly like its reference.
  std::vector<int> next;
  for (const auto* r : rows) next.push_back(r->back());
  next[1] = InferenceSession::kIdle;
  mixed.step(next);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (next[i] == InferenceSession::kIdle) continue;
    refs[i].step(std::span<const int>(&next[i], 1));
  }
  expect_rows_match("after a step with row 1 idle");

  // All rows live again, row 1 one position behind the others.
  for (std::size_t i = 0; i < rows.size(); ++i) next[i] = rows[i]->front();
  mixed.step(next);
  for (std::size_t i = 0; i < rows.size(); ++i)
    refs[i].step(std::span<const int>(&next[i], 1));
  expect_rows_match("after a dense step");

  // Rows join the running session: seat() starts the named rows afresh
  // (each against a new batch-1 reference) while every other row keeps
  // its mid-decode position, KV and logits; then all rows step on.
  const auto join = [&](const std::vector<Index>& at,
                        const std::vector<const std::vector<int>*>& ps,
                        const std::vector<const KvState*>& ss,
                        const char* when) {
    std::vector<Index> before;
    for (std::size_t i = 0; i < rows.size(); ++i)
      before.push_back(mixed.position(static_cast<Index>(i)));
    std::vector<std::span<const int>> joined;
    for (const auto* p : ps) joined.emplace_back(*p);
    mixed.seat(joined, ss, at);
    for (std::size_t j = 0; j < at.size(); ++j) {
      const auto r = static_cast<std::size_t>(at[j]);
      if (r == rows.size()) {
        rows.push_back(ps[j]);
        refs.emplace_back(model);
      } else {
        rows[r] = ps[j];
        refs[r] = InferenceSession(model);
      }
      refs[r].reset(1);
      refs[r].prime(*ps[j]);
    }
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (std::find(at.begin(), at.end(), static_cast<Index>(i)) != at.end())
        continue;
      EXPECT_EQ(mixed.position(static_cast<Index>(i)), before[i])
          << "row " << i << " " << when;
    }
    expect_rows_match(when);
    next.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) next[i] = rows[i]->back();
    mixed.step(next);
    for (std::size_t i = 0; i < rows.size(); ++i)
      refs[i].step(std::span<const int>(&next[i], 1));
    expect_rows_match(when);
  };
  // Row 3 is re-seated with another prefix, resuming from a snapshot.
  join({3}, {&pc}, {&snap_c}, "after row 3 joined mid-decode");
  // Two rows past the end grow the session while five rows are live.
  join({5, 6}, {&pb, &pa}, {nullptr, &snap_a}, "after rows grew the session");
  EXPECT_EQ(mixed.batch(), 7);
}

/// Pattern mix exercising divisions at several depths and leaf sizes.
const pcfg::PatternDistribution& test_patterns() {
  static const pcfg::PatternDistribution* dist = [] {
    auto* d = new pcfg::PatternDistribution();
    d->add("L6N2", 4);
    d->add("L4N4", 3);
    d->add("N6", 2);
    d->add("L8", 1);
    d->finalize();
    return d;
  }();
  return *dist;
}

core::DcGenConfig diff_config() {
  core::DcGenConfig cfg;
  cfg.total = 1200;
  cfg.threshold = 25;
  cfg.sample.batch_size = 32;
  return cfg;
}

// The differential: for every seed × thread count × budget, the run
// holding parent snapshots must be byte-identical (same strings, same
// order) to the single-threaded baseline holding none. Budgets cover the
// unbounded case, one too small to hold a snapshot, and zero. The budget
// is checked only in the single-threaded division phase, so the prefill
// accounting is the same at any thread count too.
TEST(DcGenKvCacheDifferential, CachedMatchesUncachedBitwise) {
  const auto& model = test_model();
  const auto& patterns = test_patterns();
  for (const std::uint64_t seed : {1ull, 2ull}) {
    core::DcGenConfig base = diff_config();
    base.kv_cache_bytes = 0;
    base.threads = 1;
    core::DcGenStats base_stats;
    const auto want =
        core::dc_generate(model, patterns, base, seed, &base_stats);
    ASSERT_GT(want.size(), 400u) << "fixture generates too little";
    EXPECT_EQ(base_stats.prefill_saved, 0u);

    std::map<std::size_t, std::size_t> saved_at_one_thread;
    for (const int threads : {1, 4}) {
      for (const std::size_t budget :
           {std::size_t(1) << 30, std::size_t(4096), std::size_t(0)}) {
        core::DcGenConfig cfg = diff_config();
        cfg.kv_cache_bytes = budget;
        cfg.threads = threads;
        core::DcGenStats stats;
        const auto got = core::dc_generate(model, patterns, cfg, seed, &stats);
        EXPECT_EQ(got, want)
            << "seed=" << seed << " threads=" << threads
            << " budget=" << budget;
        if (threads == 1)
          saved_at_one_thread[budget] = stats.prefill_saved;
        else
          EXPECT_EQ(stats.prefill_saved, saved_at_one_thread[budget])
              << "seed=" << seed << " budget=" << budget;
      }
    }
  }
}

TEST(DcGenKvCacheDifferential, CacheSavesPrefillWork) {
  const auto& model = test_model();
  const auto& patterns = test_patterns();
  core::DcGenConfig cfg = diff_config();
  cfg.kv_cache_bytes = 0;
  core::DcGenStats off;
  core::dc_generate(model, patterns, cfg, 7, &off);
  cfg.kv_cache_bytes = diff_config().kv_cache_bytes;
  core::DcGenStats on;
  core::dc_generate(model, patterns, cfg, 7, &on);
  EXPECT_EQ(off.prefill_saved, 0u);
  EXPECT_GT(on.prefill_saved, 0u);
  EXPECT_LT(on.prefill_tokens, off.prefill_tokens);
  // The unbounded-cache run must skip a meaningful share of prefill.
  EXPECT_GE(double(on.prefill_saved),
            0.2 * double(off.prefill_tokens));
}

// Every snapshot a run holds is given back by the time dc_generate
// returns (KvBudget's destructor checks its own count), so the resident
// bytes gauge is back where it started, for sampled and ordered leaves at
// any thread count.
TEST(DcGenKvCacheDifferential, HeldBytesReturnAfterRun) {
  const auto& model = test_model();
  const auto& patterns = test_patterns();
  auto& resident = kv_cache_metrics().bytes;
  for (const auto mode : {core::LeafMode::kSampled, core::LeafMode::kOrdered})
    for (const int threads : {1, 4}) {
      core::DcGenConfig cfg = diff_config();
      cfg.leaf_mode = mode;
      cfg.ordered_max_expansions = 64;
      cfg.threads = threads;
      const double before = resident.value();
      core::DcGenStats stats;
      core::dc_generate(model, patterns, cfg, 3, &stats);
      EXPECT_GT(stats.prefill_saved, 0u);  // snapshots were held
      EXPECT_EQ(resident.value(), before) << "threads=" << threads;
    }
}

}  // namespace
}  // namespace ppg::gpt
