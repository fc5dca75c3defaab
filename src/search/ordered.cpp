#include "search/ordered.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tokenizer/tokenizer.h"

namespace ppg::search {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
/// Logits at or below this are masked out (the LogitMask convention writes
/// -1e30f; the sampler uses the same threshold).
constexpr float kMaskedLogit = -1e29f;

struct SearchMetrics {
  obs::Counter& nodes_expanded;
  obs::Counter& emitted;
  obs::Counter& truncated;
  obs::Gauge& heap_peak;
};

SearchMetrics& search_metrics() {
  auto& r = obs::Registry::global();
  static SearchMetrics m{r.counter("search.nodes_expanded"),
                         r.counter("search.emitted"),
                         r.counter("search.truncated"),
                         r.gauge("search.heap_peak")};
  return m;
}

}  // namespace

std::vector<double> masked_log_probs(std::span<const float> logits) {
  std::vector<double> out(logits.size(), kNegInf);
  float mx = kMaskedLogit;
  for (float l : logits)
    if (l > kMaskedLogit && l > mx) mx = l;
  if (mx <= kMaskedLogit) return out;  // everything masked
  double z = 0.0;
  for (float l : logits)
    if (l > kMaskedLogit) z += std::exp(static_cast<double>(l - mx));
  const double logz = std::log(z);
  for (std::size_t i = 0; i < logits.size(); ++i)
    if (logits[i] > kMaskedLogit)
      out[i] = static_cast<double>(logits[i] - mx) - logz;
  return out;
}

OrderedEnumerator::OrderedEnumerator(const gpt::GptModel& model,
                                     std::vector<int> prefix,
                                     OrderedOptions opts, gpt::LogitMask mask,
                                     const gpt::KvState* resume)
    : model_(&model),
      prefix_(std::move(prefix)),
      opts_(opts),
      mask_(std::move(mask)),
      resume_(resume),
      cache_(opts.cache_bytes),
      session_(model) {
  PPG_CHECK(!prefix_.empty(), "ordered enumeration needs a non-empty prefix");
  PPG_CHECK(static_cast<Index>(prefix_.size()) < model.config().context,
            "prefix length %zu leaves no room in context %d", prefix_.size(),
            static_cast<int>(model.config().context));
  if (opts_.max_nodes == 0) opts_.max_nodes = 1;
}

void OrderedEnumerator::push_node(Node n) {
  // push_children() batch-enforces budgets after each expansion, so the
  // frontier overfills by at most one vocabulary of children between
  // enforcements; the inline trim is a hard backstop should a future push
  // site forget that contract (never fires today: kMaxOverfill > vocab).
  constexpr std::size_t kMaxOverfill = 256;
  frontier_.push_back(std::move(n));
  std::push_heap(frontier_.begin(), frontier_.end(), worse);
  if (frontier_.size() > opts_.max_nodes + kMaxOverfill) enforce_budgets();
}

OrderedEnumerator::Node OrderedEnumerator::pop_node() {
  std::pop_heap(frontier_.begin(), frontier_.end(), worse);
  Node n = std::move(frontier_.back());
  frontier_.pop_back();
  return n;
}

void OrderedEnumerator::seat(std::span<const int> prefix,
                             const gpt::KvState* state) {
  const std::span<const int> prefixes[] = {prefix};
  const gpt::KvState* const states[] = {state};
  const auto prefill = session_.seat(prefixes, states);
  stats_.prefill_tokens += prefill.computed;
  stats_.prefill_saved += prefill.restored;
}

void OrderedEnumerator::expand_root() {
  PPG_CHECK(!resume_ || resume_->len <= static_cast<Index>(prefix_.size()),
            "resume snapshot (%d) deeper than prefix (%zu)",
            static_cast<int>(resume_->len), prefix_.size());
  seat(prefix_, resume_);
  resume_ = nullptr;  // never needed again
  cache_.insert(prefix_, session_.snapshot(0));
  push_children(prefix_, 0.0, session_.logits_row(0));
}

void OrderedEnumerator::expand(Node node) {
  obs::Span span("search/expand", "search");
  const auto& seq = node.seq;
  const auto parent = std::span<const int>(seq).first(seq.size() - 1);
  // Seat at the parent's end, from the node's pinned parent snapshot. When
  // that was evicted before this node could pin it (tiny byte budgets),
  // re-derive from the deepest surviving ancestor — bitwise identical by
  // the kv_cache contract; seat() books the re-fed positions as prefill.
  gpt::KvTrieCache::Handle pin =
      node.parent ? std::move(node.parent) : cache_.find_longest(parent);
  seat(parent, pin.state());
  pin.release();
  // The scoring step of seq.back(), paid by every expansion regardless of
  // caching, is a plain step and not prefill.
  const int last = seq.back();
  session_.step(std::span<const int>(&last, 1));
  ++stats_.nodes_expanded;
  search_metrics().nodes_expanded.inc();
  cache_.insert(seq, session_.snapshot(0));
  push_children(seq, node.logp, session_.logits_row(0));
}

void OrderedEnumerator::push_children(const std::vector<int>& seq, double logp,
                                      std::span<const float> logits) {
  scratch_.assign(logits.begin(), logits.end());
  if (mask_) {
    const Index step = static_cast<Index>(seq.size() - prefix_.size());
    mask_(step, scratch_);
  }
  const std::vector<double> lps = masked_log_probs(scratch_);
  const Index context = model_->config().context;
  const Index child_len = static_cast<Index>(seq.size()) + 1;
  for (std::size_t t = 0; t < lps.size(); ++t) {
    if (lps[t] == kNegInf) continue;
    const double child_logp = logp + lps[t];
    if (child_logp < opts_.min_log_prob) continue;
    const bool terminal = static_cast<int>(t) == tok::Tokenizer::kEos;
    // A non-terminal child at the context boundary can never be stepped
    // again nor emit <EOS>; a terminal child needs no further step.
    if (!terminal && child_len >= context) continue;
    Node child;
    child.logp = child_logp;
    child.seq = seq;
    child.seq.push_back(static_cast<int>(t));
    // One pin per child; may miss when the insert above was immediately
    // evicted (budget smaller than one state) — expand() falls back.
    child.parent = cache_.find(seq);
    push_node(std::move(child));
  }
  stats_.heap_peak = std::max(stats_.heap_peak, frontier_.size());
  search_metrics().heap_peak.set(static_cast<double>(stats_.heap_peak));
  enforce_budgets();
}

void OrderedEnumerator::enforce_budgets() {
  if (frontier_.size() <= opts_.max_nodes &&
      cache_.bytes() <= opts_.cache_bytes)
    return;
  // Best-first order; drop from the tail (the worst nodes). Releasing a
  // dropped node's pin lets the trie's deferred LRU eviction reclaim its
  // parent state once no sibling still pins it.
  std::sort(frontier_.begin(), frontier_.end(),
            [](const Node& a, const Node& b) { return worse(b, a); });
  while (frontier_.size() > 1 && (frontier_.size() > opts_.max_nodes ||
                                  cache_.bytes() > opts_.cache_bytes)) {
    Node dropped = std::move(frontier_.back());
    frontier_.pop_back();
    ++stats_.truncated;
    search_metrics().truncated.inc();
    stats_.truncated_log_prob =
        std::max(stats_.truncated_log_prob, dropped.logp);
  }
  std::make_heap(frontier_.begin(), frontier_.end(), worse);
}

std::optional<ScoredGuess> OrderedEnumerator::next() {
  if (done_) return std::nullopt;
  if (opts_.max_guesses != 0 && stats_.emitted >= opts_.max_guesses) {
    done_ = true;
    return std::nullopt;
  }
  if (deadline_us_ == 0 && opts_.deadline_ms > 0.0)
    deadline_us_ = obs::now_us() +
                   static_cast<std::int64_t>(opts_.deadline_ms * 1000.0);
  if (!primed_) {
    primed_ = true;
    expand_root();
  }
  while (true) {
    if (deadline_us_ != 0 && obs::now_us() >= deadline_us_) {
      stats_.deadline_hit = true;
      done_ = true;
      return std::nullopt;
    }
    if (frontier_.empty()) {
      stats_.exhausted = true;
      done_ = true;
      return std::nullopt;
    }
    Node best = pop_node();
    if (best.seq.back() == tok::Tokenizer::kEos) {
      best.parent.release();
      auto pw = tok::Tokenizer::decode_password(best.seq);
      if (!pw.has_value() || pw->empty()) {
        ++stats_.invalid;
        continue;
      }
      ++stats_.emitted;
      search_metrics().emitted.inc();
      return ScoredGuess{std::move(*pw), best.logp};
    }
    if (opts_.max_expansions != 0 &&
        stats_.nodes_expanded >= opts_.max_expansions) {
      // The best remaining node needs an expansion we no longer have the
      // budget for. Everything emitted so far is still an exact prefix of
      // the ideal ranking; record the admissible bound for what's missing.
      stats_.expansion_capped = true;
      stats_.truncated_log_prob =
          std::max(stats_.truncated_log_prob, best.logp);
      done_ = true;
      return std::nullopt;
    }
    expand(std::move(best));
  }
}

}  // namespace ppg::search
