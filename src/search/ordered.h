// Best-first ordered password enumeration (SOPG-style search decoding).
//
// Sampling draws guesses i.i.d. from the model, so the k-th guess is only
// as good as sampling luck and duplicate draws allow. This engine instead
// *searches* the model's distribution: an ordered frontier of partial
// token sequences keyed by cumulative log-probability, expanded best-first.
// Because extending a sequence can only lower its log-probability
// (log-probs are <= 0), the frontier key is an admissible bound on every
// completion below a node — so when an <EOS>-terminated node reaches the
// top of the frontier it is *provably* the most likely remaining guess, and
// the enumerator emits guesses in exactly descending model probability
// with no duplicates.
//
// Anytime contract: next() yields one complete guess per call, best-first.
// Stopping early (by count, by min-logprob, by deadline) always leaves a
// prefix of the ideal descending-probability ranking; truncation caused by
// the node budget is recorded as an admissible lower bound
// (stats().truncated_log_prob) — guesses with log-prob at or below that
// bound may be missing, anything above it is guaranteed complete.
//
// KV reuse: each expansion snapshots its session row once and shares that
// snapshot (std::shared_ptr, through a gpt::KvBudget) with all of its
// non-terminal children, so a child's expansion costs one resume + one
// step — no prefix re-prime. A snapshot is freed when its last holder
// leaves the frontier. The byte budget only caps memory: a snapshot that
// would exceed it is not kept, and its children re-prime their prefix when
// expanded. The node budget drops the *lowest-priority* frontier nodes.
//
// Determinism: single-threaded, no RNG. Ties in cumulative log-prob are
// broken by lexicographically smaller token sequence, making the emission
// order a strict total order — bitwise reproducible across runs and
// independent of any caller thread count.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "gpt/infer.h"
#include "gpt/kv_cache.h"
#include "gpt/sampler.h"

namespace ppg::search {

using gpt::Index;

/// Search budgets and stop conditions.
struct OrderedOptions {
  /// Frontier cap: when the frontier exceeds this, lowest-priority nodes
  /// are dropped (recorded in stats as truncation).
  std::size_t max_nodes = 1u << 16;
  /// Byte budget for the distinct KV snapshots the frontier holds (each
  /// counted once). An expansion whose snapshot would exceed it keeps
  /// none, and its children re-prime their prefix when expanded: the
  /// budget trades compute for memory and never changes output.
  std::size_t cache_bytes = 64ull << 20;
  /// Stop after this many emitted guesses (0 = unlimited).
  std::size_t max_guesses = 0;
  /// Stop after this many node expansions (0 = unlimited). A weakly
  /// trained (near-uniform) model can force best-first search to sweep
  /// nearly its whole tree before surfacing the k-th guess; this cap
  /// bounds that work *deterministically*, where a wall-clock deadline
  /// would not be reproducible. Emitted guesses stay an exact prefix of
  /// the ideal ranking; the stop is recorded like a truncation
  /// (stats().expansion_capped, truncated_log_prob).
  std::size_t max_expansions = 0;
  /// Prune any partial sequence whose cumulative log-prob falls below
  /// this; enumeration ends when nothing above it remains.
  double min_log_prob = -std::numeric_limits<double>::infinity();
  /// Wall-clock budget measured from the first next() call (0 = none).
  double deadline_ms = 0.0;
};

/// Diagnostics of one enumeration. Monotone over the run; read any time.
struct OrderedStats {
  std::size_t nodes_expanded = 0;  ///< forward steps (one per expansion)
  std::size_t emitted = 0;         ///< complete guesses yielded
  std::size_t invalid = 0;         ///< <EOS> sequences that failed decode
  std::size_t heap_peak = 0;       ///< largest frontier seen (nodes)
  std::size_t truncated = 0;       ///< frontier nodes dropped by max_nodes
  /// Admissible bound: the best log-prob ever dropped. Guesses scoring
  /// <= this may be missing from the output; above it the ranking is
  /// complete. -inf when no truncation happened.
  double truncated_log_prob = -std::numeric_limits<double>::infinity();
  bool exhausted = false;     ///< frontier emptied (nothing above min_log_prob)
  bool deadline_hit = false;  ///< stopped by deadline_ms
  bool expansion_capped = false;  ///< stopped by max_expansions
  /// Prefix positions recomputed through step(): the root's (those the
  /// caller's resume state did not cover) plus the whole parent of every
  /// node the byte budget left without a snapshot. Excludes each
  /// expansion's single scoring step.
  std::size_t prefill_tokens = 0;
  /// Prefix positions restored from KV snapshots instead of recomputed.
  std::size_t prefill_saved = 0;
};

/// One emitted guess with its exact model score: log P(sequence after the
/// request prefix), masked-renormalized over the allowed tokens at every
/// position (identical arithmetic to the sampler's masked softmax).
struct ScoredGuess {
  std::string password;
  double log_prob = 0.0;
};

/// Per-token log-probabilities of a masked logit row: tokens whose logit
/// was forced to <= -1e29f (the LogitMask convention) get -inf; the rest
/// are renormalized over the surviving set, max-subtracted and accumulated
/// in double. This is the enumerator's exact scoring arithmetic, exposed
/// so the exactness property test can brute-force rankings bitwise
/// identically.
std::vector<double> masked_log_probs(std::span<const float> logits);

/// Best-first enumerator over one request prefix. Yields complete guesses
/// one at a time in strictly descending (log_prob, lexicographic) order.
///
/// `prefix` is the full token prefix (e.g. <BOS> pattern <SEP> or a
/// D&C-GEN task prefix) and must be non-empty and within the model
/// context. `mask` follows the sampler's LogitMask contract (step counts
/// tokens generated after the prefix). When `resume` covers a leading part
/// of the prefix (resume->len <= prefix.size()), the root expansion
/// restores those positions instead of re-priming them; the enumerator
/// holds the snapshot until then.
///
/// The model must outlive the enumerator. Not thread-safe; use one
/// enumerator per thread.
class OrderedEnumerator {
 public:
  OrderedEnumerator(const gpt::GptModel& model, std::vector<int> prefix,
                    OrderedOptions opts = {}, gpt::LogitMask mask = nullptr,
                    std::shared_ptr<const gpt::KvState> resume = nullptr);
  // Held snapshots book their bytes back into budget_ when freed.
  OrderedEnumerator(const OrderedEnumerator&) = delete;
  OrderedEnumerator& operator=(const OrderedEnumerator&) = delete;

  /// The next-best complete guess, or std::nullopt when enumeration is
  /// over (budget stop, deadline, or frontier exhausted — see stats()).
  /// Once it returns nullopt it always will.
  std::optional<ScoredGuess> next();

  const OrderedStats& stats() const noexcept { return stats_; }

  /// Bytes of the distinct KV snapshots the frontier holds (the
  /// cache_bytes budget's unit).
  std::size_t held_bytes() const noexcept { return budget_.held(); }

 private:
  /// A frontier entry: full token sequence (request prefix included),
  /// cumulative log-prob of the tokens after the prefix, and the snapshot
  /// covering seq minus its last token, shared with its siblings (null
  /// when the byte budget kept none). Terminal (<EOS>) nodes are never
  /// expanded and hold none.
  struct Node {
    double logp = 0.0;
    std::vector<int> seq;
    std::shared_ptr<const gpt::KvState> parent;
  };

  /// Strict-weak "worse-than" order: lower logp is worse; equal logp
  /// breaks toward the lexicographically smaller sequence. No two frontier
  /// nodes share a sequence, so this is a total order and the pop order is
  /// deterministic.
  struct Worse {
    bool operator()(const Node& a, const Node& b) const noexcept {
      if (a.logp != b.logp) return a.logp < b.logp;
      return b.seq < a.seq;
    }
  };

  /// Seats the session's single row at the end of `prefix`, resuming from
  /// `state` (may be null), and books the prefill into stats_.
  void seat(std::span<const int> prefix, const gpt::KvState* state);
  void expand_root();
  void expand(Node node);
  /// Scores the session row's logits after `seq` (masked + renormalized),
  /// pushes every surviving child, then enforces the node budget.
  void push_children(const std::vector<int>& seq, double logp);
  /// Records the frontier's peak, then drops its worst nodes while it is
  /// over max_nodes.
  void enforce_budgets();

  const gpt::GptModel* model_;
  std::vector<int> prefix_;
  OrderedOptions opts_;
  gpt::LogitMask mask_;
  std::shared_ptr<const gpt::KvState> resume_;  ///< dropped after the root

  gpt::InferenceSession session_;
  // Declared before frontier_: freeing a snapshot gives its bytes back
  // here, so it must outlive the frontier's nodes.
  gpt::KvBudget budget_;
  std::set<Node, Worse> frontier_;  ///< worst first, best last
  std::vector<float> scratch_;  ///< masked logit row
  OrderedStats stats_;
  bool primed_ = false;
  bool done_ = false;
  std::int64_t deadline_us_ = 0;  ///< absolute, set at first next(); 0 = none
};

}  // namespace ppg::search
