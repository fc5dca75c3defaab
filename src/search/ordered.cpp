#include "search/ordered.h"

#include <algorithm>
#include <cmath>
#include <iterator>
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
                                     std::shared_ptr<const gpt::KvState> resume)
    : model_(&model),
      prefix_(std::move(prefix)),
      opts_(opts),
      mask_(std::move(mask)),
      resume_(std::move(resume)),
      session_(model),
      budget_(opts_.cache_bytes) {
  PPG_CHECK(!prefix_.empty(), "ordered enumeration needs a non-empty prefix");
  PPG_CHECK(static_cast<Index>(prefix_.size()) < model.config().context,
            "prefix length %zu leaves no room in context %d", prefix_.size(),
            static_cast<int>(model.config().context));
  if (opts_.max_nodes == 0) opts_.max_nodes = 1;
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
  seat(prefix_, resume_.get());
  resume_.reset();  // never needed again
  push_children(prefix_, 0.0);
}

void OrderedEnumerator::expand(Node node) {
  obs::Span span("search/expand", "search");
  const auto& seq = node.seq;
  // Seat at the parent's end from the snapshot the parent's expansion
  // shared with its children; it covers the whole parent, so nothing is
  // re-primed unless the byte budget left the node without one (seat()
  // then books the re-fed positions as prefill). Dropping this node's
  // hold frees the snapshot once no sibling still holds it.
  seat(std::span<const int>(seq).first(seq.size() - 1), node.parent.get());
  node.parent.reset();
  // The scoring step of seq.back() is a plain step and not prefill.
  const int last = seq.back();
  session_.step(std::span<const int>(&last, 1));
  ++stats_.nodes_expanded;
  search_metrics().nodes_expanded.inc();
  push_children(seq, node.logp);
}

void OrderedEnumerator::push_children(const std::vector<int>& seq,
                                      double logp) {
  const auto logits = session_.logits_row(0);
  scratch_.assign(logits.begin(), logits.end());
  if (mask_) {
    const Index step = static_cast<Index>(seq.size() - prefix_.size());
    mask_(step, scratch_);
  }
  const std::vector<double> lps = masked_log_probs(scratch_);
  const Index context = model_->config().context;
  const Index child_len = static_cast<Index>(seq.size()) + 1;
  // One snapshot per expansion, taken for the first non-terminal child and
  // shared by all of them. Over the byte budget it is null: the children
  // hold nothing and expand() re-primes them, so the budget caps memory
  // and never changes output.
  std::optional<std::shared_ptr<const gpt::KvState>> snapshot;
  for (std::size_t t = 0; t < lps.size(); ++t) {
    if (lps[t] == kNegInf) continue;
    const double child_logp = logp + lps[t];
    if (child_logp < opts_.min_log_prob) continue;
    const bool terminal = static_cast<int>(t) == tok::Tokenizer::kEos;
    // A non-terminal child at the context boundary can never be stepped
    // again nor emit <EOS>; a terminal child needs no further step.
    if (!terminal && child_len >= context) continue;
    if (!terminal && !snapshot) snapshot = budget_.hold(session_.snapshot(0));
    Node child{child_logp, seq, terminal ? nullptr : *snapshot};
    child.seq.push_back(static_cast<int>(t));
    frontier_.insert(std::move(child));
  }
  enforce_budgets();
}

void OrderedEnumerator::enforce_budgets() {
  stats_.heap_peak = std::max(stats_.heap_peak, frontier_.size());
  search_metrics().heap_peak.set(static_cast<double>(stats_.heap_peak));
  while (frontier_.size() > opts_.max_nodes) {
    const auto worst = frontier_.begin();
    ++stats_.truncated;
    search_metrics().truncated.inc();
    stats_.truncated_log_prob =
        std::max(stats_.truncated_log_prob, worst->logp);
    frontier_.erase(worst);
  }
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
    Node best =
        std::move(frontier_.extract(std::prev(frontier_.end())).value());
    if (best.seq.back() == tok::Tokenizer::kEos) {
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
