#include "gpt/sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tokenizer/tokenizer.h"

namespace ppg::gpt {

int sample_from_logits(std::span<const float> logits, Rng& rng,
                       const SampleOptions& opts) {
  const std::size_t v = logits.size();
  // Work on (probability, index) pairs after temperature scaling.
  thread_local std::vector<std::pair<float, int>> items;
  items.clear();
  items.reserve(v);
  const float inv_t = 1.f / std::max(opts.temperature, 1e-6f);
  float mx = -1e30f;
  for (std::size_t i = 0; i < v; ++i) mx = std::max(mx, logits[i] * inv_t);
  for (std::size_t i = 0; i < v; ++i) {
    const float l = logits[i] * inv_t;
    if (l <= -1e29f) continue;  // masked out
    items.emplace_back(std::exp(l - mx), static_cast<int>(i));
  }
  if (items.empty()) return -1;  // everything masked
  const bool truncate =
      (opts.top_k > 0 && static_cast<std::size_t>(opts.top_k) < items.size()) ||
      opts.top_p < 1.0;
  if (truncate) {
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (opts.top_k > 0 && static_cast<std::size_t>(opts.top_k) < items.size())
      items.resize(static_cast<std::size_t>(opts.top_k));
    if (opts.top_p < 1.0) {
      double total = 0.0;
      for (const auto& [p, idx] : items) total += p;
      double acc = 0.0;
      std::size_t keep = 0;
      for (; keep < items.size(); ++keep) {
        acc += items[keep].first;
        if (acc >= opts.top_p * total) {
          ++keep;
          break;
        }
      }
      items.resize(std::max<std::size_t>(keep, 1));
    }
  }
  double total = 0.0;
  for (const auto& [p, idx] : items) total += p;
  double target = rng.uniform() * total;
  for (const auto& [p, idx] : items) {
    target -= p;
    if (target < 0.0) return idx;
  }
  return items.back().second;
}

std::size_t decode_step(InferenceSession& session, std::span<DecodeRow> rows,
                        const SampleOptions& opts) {
  const Index context = session.config().context;
  std::vector<int> feed(rows.size(), InferenceSession::kIdle);
  std::vector<float> logits(static_cast<std::size_t>(session.config().vocab));
  std::size_t alive = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    DecodeRow& row = rows[i];
    if (!row.live) continue;
    const auto r = static_cast<Index>(i);
    int tok_id = -1;  // a full context leaves nothing to sample
    if (session.position(r) < context) {
      const auto src = session.logits_row(r);
      std::copy(src.begin(), src.end(), logits.begin());
      if (row.mask != nullptr && *row.mask)
        (*row.mask)(static_cast<Index>(row.tokens.size()), logits);
      tok_id = sample_from_logits(logits, *row.rng, opts);
    }
    // A fully masked row (-1) finishes invalid; decoding rejects it.
    if (tok_id >= 0) row.tokens.push_back(tok_id);
    // A row retires on <EOS>, or when its token would fill the context
    // (no position would be left to sample the next one from).
    if (tok_id < 0 || tok_id == tok::Tokenizer::kEos ||
        session.position(r) + 1 >= context) {
      row.live = false;
    } else {
      feed[i] = tok_id;
      ++alive;
    }
  }
  if (alive > 0) session.step(feed);
  return alive;
}

std::vector<std::string> sample_passwords(const GptModel& model,
                                          std::span<const int> prefix,
                                          std::size_t count, Rng& rng,
                                          const SampleOptions& opts,
                                          const LogitMask& mask,
                                          SampleStats* stats,
                                          const KvState* resume) {
  std::vector<std::string> out;
  out.reserve(count);
  if (count == 0) return out;
  SampleStats local;
  InferenceSession session(model, opts.precision);
  const std::size_t attempt_budget =
      count * static_cast<std::size_t>(std::max(opts.max_attempt_factor, 1));

  while (out.size() < count && local.sequences_run < attempt_budget) {
    const auto n = std::min<std::size_t>(
        static_cast<std::size_t>(opts.batch_size), count - out.size());
    local.sequences_run += n;
    const std::vector<std::span<const int>> prefixes(n, prefix);
    const std::vector<const KvState*> states(n, resume);
    const auto prefill = session.seat(prefixes, states);
    local.prefill_tokens += prefill.computed;
    local.prefill_saved += prefill.restored;
    // Every row draws from the one caller Rng, in row order.
    std::vector<DecodeRow> rows(n, DecodeRow{&rng, &mask, {}, true});
    while (decode_step(session, rows, opts) > 0) continue;
    for (std::size_t i = 0; i < n && out.size() < count; ++i) {
      std::vector<int> full(prefix.begin(), prefix.end());
      full.insert(full.end(), rows[i].tokens.begin(), rows[i].tokens.end());
      const auto pw = tok::Tokenizer::decode_password(full);
      if (pw.has_value() && !pw->empty())
        out.push_back(*pw);
      else
        ++local.invalid;
    }
  }
  if (stats) *stats = local;
  return out;
}

}  // namespace ppg::gpt
