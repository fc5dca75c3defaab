#include "gpt/kv_cache.h"

#include <map>
#include <utility>

#include "common/check.h"

namespace ppg::gpt {

KvCacheMetrics& kv_cache_metrics() {
  auto& r = obs::Registry::global();
  static KvCacheMetrics m{r.counter("kv_cache.hits"),
                          r.counter("kv_cache.misses"),
                          r.counter("kv_cache.inserts"),
                          r.counter("kv_cache.evictions"),
                          r.counter("kv_cache.evicted_bytes"),
                          r.gauge("kv_cache.bytes"),
                          r.counter("kv_cache.prefill_tokens"),
                          r.counter("kv_cache.prefill_saved")};
  return m;
}

std::size_t KvState::bytes() const noexcept {
  std::size_t total = logits.size() * sizeof(float);
  for (const auto& blk : k) total += blk.size() * sizeof(float);
  for (const auto& blk : v) total += blk.size() * sizeof(float);
  return total;
}

/// One trie node: an edge token from its parent, children by token id, and
/// (for inserted prefixes) the trie's reference to a KvState plus its place
/// in the LRU. Interior nodes created only as path scaffolding carry no
/// state and are pruned when their subtree empties.
struct KvTrieCache::Node {
  Node* parent = nullptr;
  int token = -1;
  std::map<int, std::unique_ptr<Node>> children;
  std::shared_ptr<const KvState> state;
  std::list<Node*>::iterator lru_pos;  ///< valid while state is set
};

KvTrieCache::KvTrieCache(std::size_t budget)
    : max_bytes(budget), root_(std::make_unique<Node>()) {}

KvTrieCache::~KvTrieCache() {
  MutexLock lock(mu_);
  kv_cache_metrics().bytes.add(-static_cast<double>(bytes_));
}

std::shared_ptr<const KvState> KvTrieCache::find_longest(
    std::span<const int> prefix) {
  MutexLock lock(mu_);
  Node* n = root_.get();
  Node* deepest = nullptr;
  for (const int tok : prefix) {
    const auto it = n->children.find(tok);
    if (it == n->children.end()) break;
    n = it->second.get();
    if (n->state) deepest = n;
  }
  if (deepest == nullptr) {
    kv_cache_metrics().misses.inc();
    return nullptr;
  }
  kv_cache_metrics().hits.inc();
  lru_.splice(lru_.end(), lru_, deepest->lru_pos);
  return deepest->state;
}

void KvTrieCache::insert(std::span<const int> prefix, KvState state) {
  MutexLock lock(mu_);
  Node* n = root_.get();
  for (const int tok : prefix) {
    auto& child = n->children[tok];
    if (!child) {
      child = std::make_unique<Node>();
      child->parent = n;
      child->token = tok;
    }
    n = child.get();
  }
  if (n->state) return;  // first insert wins; the copies are bitwise equal
  n->state = std::make_shared<const KvState>(std::move(state));
  n->lru_pos = lru_.insert(lru_.end(), n);
  const std::size_t added = n->state->bytes();
  bytes_ += added;
  KvCacheMetrics& m = kv_cache_metrics();
  m.inserts.inc();
  m.bytes.add(static_cast<double>(added));
  evict_over_budget_locked();
}

void KvTrieCache::evict_over_budget_locked() {
  KvCacheMetrics& m = kv_cache_metrics();
  while (bytes_ > max_bytes) {
    Node* n = lru_.front();
    lru_.pop_front();
    const std::size_t freed = n->state->bytes();
    bytes_ -= freed;
    m.evictions.inc();
    m.evicted_bytes.inc(freed);
    m.bytes.add(-static_cast<double>(freed));
    n->state.reset();  // a reader still holding the state keeps it alive
    // Prune now-dead scaffolding so the trie does not accrete token paths.
    while (n != root_.get() && !n->state && n->children.empty()) {
      Node* parent = n->parent;
      parent->children.erase(n->token);  // destroys n
      n = parent;
    }
  }
}

std::size_t KvTrieCache::bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

std::size_t KvTrieCache::nodes() const {
  MutexLock lock(mu_);
  return lru_.size();
}

namespace {

/// One snapshot handed out by a KvBudget, counted in its held bytes until
/// the last holder drops it.
struct HeldState {
  HeldState(KvState s, std::atomic<std::size_t>& held, std::size_t bytes)
      : state(std::move(s)), held(held), bytes(bytes) {}
  HeldState(const HeldState&) = delete;
  HeldState& operator=(const HeldState&) = delete;
  ~HeldState() {
    held.fetch_sub(bytes, std::memory_order_relaxed);
    kv_cache_metrics().bytes.add(-static_cast<double>(bytes));
  }

  const KvState state;
  std::atomic<std::size_t>& held;
  const std::size_t bytes;
};

}  // namespace

KvBudget::~KvBudget() {
  PPG_CHECK(held() == 0, "KvBudget destroyed with %zu bytes still held",
            held());
}

std::shared_ptr<const KvState> KvBudget::hold(KvState state) {
  const std::size_t bytes = state.bytes();
  std::size_t held = held_.load(std::memory_order_relaxed);
  do {
    if (bytes > max_bytes - held) return nullptr;
  } while (!held_.compare_exchange_weak(held, held + bytes,
                                        std::memory_order_relaxed));
  kv_cache_metrics().bytes.add(static_cast<double>(bytes));
  auto owner = std::make_shared<HeldState>(std::move(state), held_, bytes);
  return {owner, &owner->state};
}

}  // namespace ppg::gpt
