// KV snapshots and the two ways they are kept: a prefix trie and a byte
// budget.
//
// Every consumer of InferenceSession seats sessions at token prefixes
// that extend prefixes already computed: a D&C-GEN task's prefix is its
// dividing parent's plus one token, an ordered-search node's is its
// parent's plus one token, and repeated serve requests share their whole
// `<BOS> pattern <SEP>` prefix. Stepping the full prefix again recomputes
// per-layer K/V blocks an earlier forward already produced. This header
// memoises them:
//
//  * KvState is one sequence's immutable per-layer K/V blocks for
//    positions [0, len) plus the logits after token len-1 — everything a
//    session needs to continue decoding as if it had stepped the prefix
//    itself. InferenceSession::seat restores each row of a batch from its
//    own state at its own depth (the batch is ragged: rows need not share
//    a prefix length or a resume depth).
//  * A snapshot is owned through std::shared_ptr<const KvState> and
//    nothing else: whoever holds one keeps the state alive, and it is
//    freed when the last holder drops it.
//  * KvTrieCache finds a snapshot by prefix when the consumer does not
//    know its parent: the serve layer's cross-request cache. It holds one
//    reference per cached prefix, with LRU eviction under a byte budget;
//    eviction drops only the trie's reference.
//  * KvBudget caps the bytes of snapshots handed from parent to child
//    directly: D&C-GEN's task parents (core/dcgen.cpp) and ordered
//    search's frontier (search/ordered.h). Over the cap it holds nothing
//    and the child re-primes its prefix.
//
// Determinism contract: resuming from a KvState is bitwise identical to
// re-stepping the same prefix, because per-sequence float op order is
// invariant to batch geometry (kernels.h gemm_nn accumulates each output
// element in the same p-order in the 4-row-blocked and remainder paths;
// layernorm, attention, and GELU are per-row). The same invariance lets a
// ragged step compact its live rows into any block position. A snapshot
// therefore changes *where* the floats come from, never their values — so
// no cap, eviction or cache miss can change output. The differential suite
// in tests/kv_cache_test.cpp locks this down across thread counts and
// budgets.
//
// Thread safety: all member functions are safe to call concurrently; the
// trie takes one mutex per operation (trivial next to a model forward) and
// the budget is one atomic. KvStates are immutable once shared, so their
// readers need no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_annotations.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

namespace ppg::gpt {

using nn::Index;

/// One sequence's KV snapshot: per-layer K and V blocks covering positions
/// [0, len), plus the next-token logits after token len-1. Immutable once
/// shared.
struct KvState {
  Index len = 0;                         ///< positions covered
  std::vector<std::vector<float>> k, v;  ///< per layer, len * d_model
  std::vector<float> logits;             ///< vocab, after token len-1

  /// Payload size (the budgets' unit).
  std::size_t bytes() const noexcept;
};

/// Trie-of-token-ids store of shared KvStates with LRU eviction under a
/// byte budget.
class KvTrieCache {
 public:
  /// `max_bytes` caps the states the trie references. Eviction drops only
  /// the trie's reference, so a reader still holding an evicted state
  /// keeps it alive.
  explicit KvTrieCache(std::size_t max_bytes);
  ~KvTrieCache();

  KvTrieCache(const KvTrieCache&) = delete;
  KvTrieCache& operator=(const KvTrieCache&) = delete;

  /// Deepest cached ancestor of `prefix` (including `prefix` itself),
  /// which becomes the most recently used; null when no prefix of it is
  /// cached.
  std::shared_ptr<const KvState> find_longest(std::span<const int> prefix);

  /// Stores `state` under `prefix` (state.len need not equal
  /// prefix.size(); serve always inserts state.len == prefix.size()).
  /// First insert wins: re-inserting an existing prefix keeps the resident
  /// state (cached and recomputed states are bitwise equal by the
  /// determinism contract, so which copy survives is unobservable). May
  /// evict the least recently used states, this one included.
  void insert(std::span<const int> prefix, KvState state);

  /// Bytes of the states the trie references.
  std::size_t bytes() const;
  /// Nodes currently holding a state.
  std::size_t nodes() const;

  const std::size_t max_bytes;

 private:
  struct Node;
  void evict_over_budget_locked() PPG_REQUIRES(mu_);

  mutable Mutex mu_;
  std::unique_ptr<Node> root_ PPG_GUARDED_BY(mu_);
  /// State-bearing nodes; front is the eviction victim, back the most
  /// recently used.
  std::list<Node*> lru_ PPG_GUARDED_BY(mu_);
  std::size_t bytes_ PPG_GUARDED_BY(mu_) = 0;
};

/// A byte cap on snapshots handed straight from parent to child. Each
/// hold() counts its bytes until the last holder frees the snapshot, so
/// the budget must outlive every snapshot it hands out (checked at
/// destruction).
class KvBudget {
 public:
  explicit KvBudget(std::size_t max_bytes) : max_bytes(max_bytes) {}
  ~KvBudget();

  KvBudget(const KvBudget&) = delete;
  KvBudget& operator=(const KvBudget&) = delete;

  /// `state` as a shared snapshot whose bytes count in held() and in
  /// kv_cache.bytes while it lives; null when it would pass max_bytes.
  std::shared_ptr<const KvState> hold(KvState state);

  /// Bytes of the live snapshots this budget handed out.
  std::size_t held() const noexcept {
    return held_.load(std::memory_order_relaxed);
  }

  const std::size_t max_bytes;

 private:
  std::atomic<std::size_t> held_{0};
};

/// Process-wide KV-cache metrics ("kv_cache.*" in the global registry):
/// trie hit/miss/insert/eviction counters, evicted bytes, resident bytes
/// (every trie's states plus every budget's held snapshots), and the
/// prefill ledger (token positions computed vs restored by
/// InferenceSession::seat, its only writer) that bench_kv_cache reports.
/// Registered once; updates are the registry's lock-free fast path.
struct KvCacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& inserts;
  obs::Counter& evictions;
  obs::Counter& evicted_bytes;
  obs::Gauge& bytes;
  /// Prefill positions InferenceSession::seat fed through step().
  obs::Counter& prefill_tokens;
  /// Prefill positions InferenceSession::seat restored from snapshots.
  obs::Counter& prefill_saved;
};
KvCacheMetrics& kv_cache_metrics();

}  // namespace ppg::gpt
