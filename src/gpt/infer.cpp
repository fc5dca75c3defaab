#include "gpt/infer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/check.h"
#include "nn/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppg::gpt {

namespace {

/// Inference metrics, registered once (lock-free updates thereafter).
struct InferMetrics {
  obs::Counter& steps;
  obs::Counter& tokens;
  obs::Gauge& batch;
  obs::Gauge& cache_bytes;
  obs::Histogram& step_us;
  obs::Histogram& prime_us;
  static InferMetrics& get() {
    static InferMetrics m{obs::Registry::global().counter("infer.steps"),
                          obs::Registry::global().counter("infer.tokens"),
                          obs::Registry::global().gauge("infer.batch"),
                          obs::Registry::global().gauge("infer.cache_bytes"),
                          obs::Registry::global().histogram("infer.step_us"),
                          obs::Registry::global().histogram("infer.prime_us")};
    return m;
  }
};

inline float gelu1(float v) {
  return 0.5f * v * (1.f + std::erf(v * 0.7071067811865475f));
}

}  // namespace

InferenceSession::InferenceSession(const GptModel& model, Precision precision)
    : model_(&model),
      precision_(precision),
      kcache_(static_cast<std::size_t>(model.config().n_layers)),
      vcache_(static_cast<std::size_t>(model.config().n_layers)) {
  if (precision_ == Precision::kInt8) qweights_ = &model.quantized();
}

void InferenceSession::project(Index m, Index n, Index k, const float* x,
                               const nn::Linear& lin,
                               const nn::quant::QuantizedMatrix* qm,
                               float* y) {
  if (qm == nullptr) {
    nn::kernels::affine(m, n, k, x, lin.weight().data().data(),
                        lin.bias().data().data(), y);
    return;
  }
  nn::kernels::quantize_rows(m, k, qm->k_pad, x, qx_.data(), qs_.data());
  nn::kernels::qaffine(m, n, qm->k_pad, qx_.data(), qs_.data(),
                       qm->data.data(), qm->scales.data(),
                       lin.bias().data().data(), y);
}

void InferenceSession::reset(Index batch) {
  if (batch <= 0)
    throw std::invalid_argument("InferenceSession::reset: batch must be > 0");
  resize(batch);
  // Stale buffer contents are harmless: a row's KV cache is only read
  // below its position and its logits only once it has stepped.
  pos_.assign(static_cast<std::size_t>(batch), 0);
}

void InferenceSession::resize(Index batch) {
  const Config& c = model_->config();
  batch_ = batch;
  pos_.resize(static_cast<std::size_t>(batch), 0);
  if (batch > capacity_) {
    // reserve() first so each buffer is sized exactly, never doubled.
    const auto fit = [](auto& v, Index n) {
      v.reserve(static_cast<std::size_t>(n));
      v.resize(static_cast<std::size_t>(n));
    };
    for (auto& layer : kcache_) fit(layer, batch * c.context * c.d_model);
    for (auto& layer : vcache_) fit(layer, batch * c.context * c.d_model);
    fit(x_, batch * c.d_model);
    fit(h_, batch * c.d_model);
    fit(qkv_, batch * 3 * c.d_model);
    fit(att_, batch * c.d_model);
    fit(ff_, batch * c.d_ff());
    fit(logits_, batch * c.vocab);
    fit(live_logits_, batch * c.vocab);
    if (precision_ == Precision::kInt8) {
      // Widest activation the projections quantize is the d_ff-wide gelu
      // output feeding fc2; k is zero-padded per quant.h.
      fit(qx_, batch * nn::quant::padded_k(c.d_ff()));
      fit(qs_, batch);
    }
    scores_.resize(static_cast<std::size_t>(c.context));
    capacity_ = batch;
  }

  InferMetrics& m = InferMetrics::get();
  m.batch.set(static_cast<double>(batch));
  const double scratch = static_cast<double>(
      x_.size() + h_.size() + qkv_.size() + att_.size() + ff_.size() +
      logits_.size() + live_logits_.size());
  m.cache_bytes.set((2.0 * double(c.n_layers) *
                         double(capacity_ * c.context * c.d_model) +
                     scratch) *
                    sizeof(float));
}

std::span<const float> InferenceSession::step(std::span<const int> tokens) {
  const Config& c = model_->config();
  if (batch_ == 0)
    throw std::logic_error("InferenceSession::step before reset()");
  if (static_cast<Index>(tokens.size()) != batch_)
    throw std::invalid_argument("InferenceSession::step: token count != batch");
  live_.clear();
  for (Index i = 0; i < batch_; ++i) {
    const int tok = tokens[i];
    if (tok == kIdle) continue;
    if (tok < 0 || tok >= c.vocab)
      throw std::invalid_argument("InferenceSession::step: token out of range");
    if (position(i) >= c.context)
      throw std::runtime_error("InferenceSession::step: context exhausted");
    live_.push_back(i);
  }
  const std::span<const float> all_logits{
      logits_.data(), static_cast<std::size_t>(batch_ * c.vocab)};
  const Index m = static_cast<Index>(live_.size());
  if (m == 0) return all_logits;

  InferMetrics& metrics = InferMetrics::get();
  metrics.steps.inc();
  metrics.tokens.inc(static_cast<std::uint64_t>(m));
  obs::ScopedLatency latency(metrics.step_us);
  obs::Span span("infer/step", "gpt");
  const Index d = c.d_model, heads = c.n_heads, dh = d / heads;
  const float scale = 1.f / std::sqrt(static_cast<float>(dh));

  // Embedding: x = wte[token] + wpe[pos], compact over the live rows.
  const float* wte = model_->wte().table().data().data();
  const float* wpe = model_->wpe().table().data().data();
  for (Index j = 0; j < m; ++j) {
    const Index r = live_[static_cast<std::size_t>(j)];
    const float* te = wte + static_cast<Index>(tokens[r]) * d;
    const float* pe = wpe + position(r) * d;
    float* xr = x_.data() + j * d;
    for (Index k = 0; k < d; ++k) xr[k] = te[k] + pe[k];
  }

  float* const scores = scores_.data();
  for (Index l = 0; l < c.n_layers; ++l) {
    const Block& blk = model_->blocks()[static_cast<std::size_t>(l)];
    const QuantizedBlock* qb =
        qweights_ != nullptr ? &qweights_->blocks[static_cast<std::size_t>(l)]
                             : nullptr;
    // Attention: h = ln1(x); qkv = h·Wqkv+b; cache k,v; attend; x += proj.
    nn::kernels::layernorm_rows(m, d, x_.data(),
                                blk.ln1.gain().data().data(),
                                blk.ln1.bias().data().data(), h_.data());
    project(m, 3 * d, d, h_.data(), blk.qkv,
            qb != nullptr ? &qb->qkv : nullptr, qkv_.data());
    float* kc = kcache_[static_cast<std::size_t>(l)].data();
    float* vc = vcache_[static_cast<std::size_t>(l)].data();
    for (Index j = 0; j < m; ++j) {
      const Index r = live_[static_cast<std::size_t>(j)];
      const Index pos = position(r);
      const float* krow = qkv_.data() + j * 3 * d + d;
      const float* vrow = qkv_.data() + j * 3 * d + 2 * d;
      float* kdst = kc + (r * c.context + pos) * d;
      float* vdst = vc + (r * c.context + pos) * d;
      for (Index k = 0; k < d; ++k) {
        kdst[k] = krow[k];
        vdst[k] = vrow[k];
      }
    }
    for (Index j = 0; j < m; ++j) {
      const Index r = live_[static_cast<std::size_t>(j)];
      const Index pos = position(r);
      const float* q = qkv_.data() + j * 3 * d;
      float* out = att_.data() + j * d;
      for (Index hh = 0; hh < heads; ++hh) {
        const float* qh = q + hh * dh;
        float mx = -1e30f;
        for (Index s = 0; s <= pos; ++s) {
          const float* kh = kc + (r * c.context + s) * d + hh * dh;
          float acc = 0.f;
          for (Index k = 0; k < dh; ++k) acc += qh[k] * kh[k];
          scores[s] = acc * scale;
          mx = std::max(mx, scores[s]);
        }
        float z = 0.f;
        for (Index s = 0; s <= pos; ++s) {
          scores[s] = std::exp(scores[s] - mx);
          z += scores[s];
        }
        const float inv = 1.f / z;
        float* oh = out + hh * dh;
        for (Index k = 0; k < dh; ++k) oh[k] = 0.f;
        for (Index s = 0; s <= pos; ++s) {
          const float p = scores[s] * inv;
          const float* vh = vc + (r * c.context + s) * d + hh * dh;
          for (Index k = 0; k < dh; ++k) oh[k] += p * vh[k];
        }
      }
    }
    // x += proj(att)
    project(m, d, d, att_.data(), blk.proj,
            qb != nullptr ? &qb->proj : nullptr, h_.data());
    for (Index i = 0; i < m * d; ++i) x_[i] += h_[i];
    // MLP: x += fc2(gelu(fc1(ln2(x))))
    nn::kernels::layernorm_rows(m, d, x_.data(),
                                blk.ln2.gain().data().data(),
                                blk.ln2.bias().data().data(), h_.data());
    project(m, c.d_ff(), d, h_.data(), blk.fc1,
            qb != nullptr ? &qb->fc1 : nullptr, ff_.data());
    // Only the live rows — ff_ may be capacity-sized (reset reuse).
    const Index ffn = m * c.d_ff();
    for (Index idx = 0; idx < ffn; ++idx) ff_[idx] = gelu1(ff_[idx]);
    project(m, d, c.d_ff(), ff_.data(), blk.fc2,
            qb != nullptr ? &qb->fc2 : nullptr, h_.data());
    for (Index i = 0; i < m * d; ++i) x_[i] += h_[i];
  }

  nn::kernels::layernorm_rows(m, d, x_.data(),
                              model_->ln_f().gain().data().data(),
                              model_->ln_f().bias().data().data(), h_.data());
  // Every row live: compact row j is row j, so the head writes logits_ in
  // place. Otherwise it writes compact rows and they are scattered back,
  // leaving idle rows' logits as they were.
  const bool dense = m == batch_;
  project(m, c.vocab, d, h_.data(), model_->lm_head(),
          qweights_ != nullptr ? &qweights_->lm_head : nullptr,
          dense ? logits_.data() : live_logits_.data());
  for (Index j = 0; j < m; ++j) {
    const Index r = live_[static_cast<std::size_t>(j)];
    if (!dense)
      std::memcpy(logits_.data() + r * c.vocab,
                  live_logits_.data() + j * c.vocab,
                  static_cast<std::size_t>(c.vocab) * sizeof(float));
    ++pos_[static_cast<std::size_t>(r)];
  }
  return all_logits;
}

KvState InferenceSession::snapshot(Index row) const {
  const Config& c = model_->config();
  if (batch_ == 0)
    throw std::logic_error("InferenceSession::snapshot before reset()");
  if (row < 0 || row >= batch_)
    throw std::invalid_argument("InferenceSession::snapshot: row out of range");
  const Index len = position(row);
  if (len == 0)
    throw std::logic_error("InferenceSession::snapshot before any step()");
  const Index d = c.d_model;
  KvState s;
  s.len = len;
  s.k.resize(static_cast<std::size_t>(c.n_layers));
  s.v.resize(static_cast<std::size_t>(c.n_layers));
  for (Index l = 0; l < c.n_layers; ++l) {
    const float* kc =
        kcache_[static_cast<std::size_t>(l)].data() + row * c.context * d;
    const float* vc =
        vcache_[static_cast<std::size_t>(l)].data() + row * c.context * d;
    s.k[static_cast<std::size_t>(l)].assign(kc, kc + len * d);
    s.v[static_cast<std::size_t>(l)].assign(vc, vc + len * d);
  }
  const auto lr = logits_row(row);
  s.logits.assign(lr.begin(), lr.end());
  return s;
}

InferenceSession::Prefill InferenceSession::seat(
    std::span<const std::span<const int>> prefixes,
    std::span<const KvState* const> states, std::span<const Index> rows) {
  const Config& c = model_->config();
  if (prefixes.empty())
    throw std::invalid_argument("InferenceSession::seat: empty batch");
  if (!states.empty() && states.size() != prefixes.size())
    throw std::invalid_argument("InferenceSession::seat: one state per row");
  if (!rows.empty() && rows.size() != prefixes.size())
    throw std::invalid_argument("InferenceSession::seat: one row per prefix");
  const Index n = static_cast<Index>(prefixes.size());
  // Per seated prefix: its session row, and positions restored from its
  // snapshot.
  std::vector<Index> at(rows.begin(), rows.end());
  if (at.empty())
    for (Index i = 0; i < n; ++i) at.push_back(i);
  std::vector<Index> depth(prefixes.size(), 0);
  for (Index i = 0; i < n; ++i) {
    const auto len = static_cast<Index>(prefixes[i].size());
    if (len == 0)
      throw std::invalid_argument("InferenceSession::seat: empty prefix");
    const KvState* s = states.empty() ? nullptr : states[i];
    if (s == nullptr) continue;
    if (static_cast<Index>(s->k.size()) != c.n_layers ||
        static_cast<Index>(s->v.size()) != c.n_layers)
      throw std::invalid_argument(
          "InferenceSession::seat: layer count mismatch");
    Index& di = depth[static_cast<std::size_t>(i)];
    di = std::min(s->len, len);
    // A snapshot holds logits only for its own depth; one that cannot
    // supply the prefix's last logits re-feeds the last prefix token.
    if (di == len &&
        (s->len != len || static_cast<Index>(s->logits.size()) != c.vocab))
      --di;
  }
  obs::ScopedLatency latency(InferMetrics::get().prime_us);
  if (rows.empty())
    reset(n);
  else
    resize(std::max(batch_, *std::max_element(at.begin(), at.end()) + 1));
  std::vector<int> feed(static_cast<std::size_t>(batch_), kIdle);
  for (const Index r : at) {
    if (r < 0 || feed[static_cast<std::size_t>(r)] != kIdle)
      throw std::invalid_argument("InferenceSession::seat: bad or repeated row");
    feed[static_cast<std::size_t>(r)] = 0;
  }
  const Index d = c.d_model;
  Prefill done;
  Index longest = 0;  ///< most positions any row still has to step
  for (Index i = 0; i < n; ++i) {
    const Index r = at[static_cast<std::size_t>(i)];
    const Index di = depth[static_cast<std::size_t>(i)];
    const auto len = static_cast<Index>(prefixes[i].size());
    longest = std::max(longest, len - di);
    done.computed += static_cast<std::size_t>(len - di);
    done.restored += static_cast<std::size_t>(di);
    pos_[static_cast<std::size_t>(r)] = di;
    if (di == 0) continue;
    const KvState& s = *states[i];
    for (Index l = 0; l < c.n_layers; ++l) {
      std::memcpy(kcache_[static_cast<std::size_t>(l)].data() +
                      r * c.context * d,
                  s.k[static_cast<std::size_t>(l)].data(),
                  static_cast<std::size_t>(di * d) * sizeof(float));
      std::memcpy(vcache_[static_cast<std::size_t>(l)].data() +
                      r * c.context * d,
                  s.v[static_cast<std::size_t>(l)].data(),
                  static_cast<std::size_t>(di * d) * sizeof(float));
    }
    if (di == len)
      std::memcpy(logits_.data() + r * c.vocab, s.logits.data(),
                  static_cast<std::size_t>(c.vocab) * sizeof(float));
  }
  // Step the remainders from their own starts; a row whose prefix is done
  // sits idle while longer ones finish, and so does every row not seated.
  for (Index t = 0; t < longest; ++t) {
    for (Index i = 0; i < n; ++i) {
      const Index p = depth[static_cast<std::size_t>(i)] + t;
      feed[static_cast<std::size_t>(at[static_cast<std::size_t>(i)])] =
          p < static_cast<Index>(prefixes[i].size()) ? prefixes[i][p] : kIdle;
    }
    step(feed);
  }
  KvCacheMetrics& ledger = kv_cache_metrics();
  ledger.prefill_tokens.inc(done.computed);
  ledger.prefill_saved.inc(done.restored);
  return done;
}

std::span<const float> InferenceSession::prime(std::span<const int> prefix) {
  if (prefix.empty())
    throw std::invalid_argument("InferenceSession::prime: empty prefix");
  obs::ScopedLatency latency(InferMetrics::get().prime_us);
  std::vector<int> broadcast(static_cast<std::size_t>(batch_));
  std::span<const float> out;
  for (const int tok : prefix) {
    std::fill(broadcast.begin(), broadcast.end(), tok);
    out = step(broadcast);
  }
  return out;
}

std::span<const float> InferenceSession::logits_row(Index i) const {
  PPG_DCHECK(position(i) > 0, "logits_row read before the row took a step");
  const Index v = model_->config().vocab;
  return {logits_.data() + i * v, static_cast<std::size_t>(v)};
}

std::vector<float> next_token_distribution(const GptModel& model,
                                           std::span<const int> prefix) {
  InferenceSession session(model);
  session.reset(1);
  const auto logits = session.prime(prefix);
  std::vector<float> probs(logits.begin(), logits.end());
  float mx = probs[0];
  for (const float v : probs) mx = std::max(mx, v);
  double z = 0.0;
  for (auto& v : probs) {
    v = std::exp(v - mx);
    z += v;
  }
  for (auto& v : probs) v = static_cast<float>(v / z);
  return probs;
}

double sequence_log_prob(const GptModel& model, std::span<const int> ids) {
  if (ids.size() < 2)
    throw std::invalid_argument("sequence_log_prob: need at least two tokens");
  if (static_cast<Index>(ids.size()) > model.config().context)
    throw std::invalid_argument("sequence_log_prob: sequence exceeds context");
  InferenceSession session(model);
  session.reset(1);
  double total = 0.0;
  for (std::size_t t = 0; t + 1 < ids.size(); ++t) {
    const int tok = ids[t];
    const auto logits = session.step(std::span<const int>(&tok, 1));
    // log softmax at the next token's index.
    float mx = logits[0];
    for (const float v : logits) mx = std::max(mx, v);
    double z = 0.0;
    for (const float v : logits) z += std::exp(double(v - mx));
    total += double(logits[static_cast<std::size_t>(ids[t + 1])] - mx) -
             std::log(z);
  }
  return total;
}

}  // namespace ppg::gpt
