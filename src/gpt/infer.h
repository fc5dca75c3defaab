// No-autograd batched inference with per-layer KV caches.
//
// Training goes through nn::Graph; generation volume (millions of guesses)
// demands a fast path: this session keeps key/value caches per layer so each
// new token costs O(d² + pos·d) per sequence, processes a whole batch of
// sequences together (one GEMM per projection), and allocates all buffers
// once at reset.
//
// The batch is ragged: every row has its own position, and a row fed
// InferenceSession::kIdle sits the step out — it does not advance and costs
// no embed, GEMM, attention or lm_head work (only live rows are gathered
// into the projections). seat() uses this to bring rows with prefixes of
// different lengths, resumed from KV snapshots of different depths, to the
// end of their own prefixes in one pass; decoders retire finished rows the
// same way.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gpt/kv_cache.h"
#include "gpt/model.h"

namespace ppg::gpt {

/// Numeric substrate for a session's GEMMs. kFp32 is the reference (and
/// training) path; kInt8 runs the projections through per-row absmax
/// quantization + int8 GEMM (nn/quant.h) — ~bounded logits error, higher
/// throughput, identical bits on every SIMD backend. Attention, layernorm
/// and embeddings stay fp32 in both modes.
enum class Precision : int { kFp32 = 0, kInt8 = 1 };

constexpr const char* precision_name(Precision p) noexcept {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

/// Batched incremental decoder over a GptModel's weights.
/// The model must outlive the session.
class InferenceSession {
 public:
  /// Binds to a model. Buffers are sized lazily at reset(). kInt8 builds
  /// (or reuses) the model's cached quantized weight view immediately, so
  /// the one-time quantization cost lands here rather than on the first
  /// step; the view must not be invalidated by GptModel::load() while
  /// this session is alive.
  explicit InferenceSession(const GptModel& model,
                            Precision precision = Precision::kFp32);

  /// Marks a row that sits out a step(): it keeps its position, KV cache
  /// and logits row untouched.
  static constexpr int kIdle = -1;

  /// Prefill positions of one seat() call.
  struct Prefill {
    std::size_t computed = 0;  ///< fed through step()
    std::size_t restored = 0;  ///< copied from KV snapshots
  };

  /// Starts `batch` fresh sequences at position 0. Buffers are reused when
  /// `batch` fits the largest batch this session has seen, so schedulers
  /// whose tail batches shrink (D&C-GEN) pay no reallocation; only a
  /// growing batch allocates.
  void reset(Index batch);

  /// Feeds one token per sequence (tokens.size() == batch()) and returns
  /// the logits, row-major [batch, vocab]. A row fed kIdle keeps its
  /// previous logits; a live row gets the next-token logits after the
  /// token it was fed. The returned span is valid until the next
  /// step()/reset()/seat(). Throws when a live row's context window is
  /// exhausted.
  std::span<const float> step(std::span<const int> tokens);

  /// Feeds a shared prefix to every sequence; returns the logits after its
  /// last token. Equivalent to step() per prefix token with the same token
  /// broadcast across the batch.
  std::span<const float> prime(std::span<const int> prefix);

  /// The session's one seating entry point: starts session row rows[i]
  /// afresh and brings it to the end of prefixes[i] (non-empty). An empty
  /// `rows` first reset()s the session to prefixes.size() rows, row i
  /// taking prefixes[i]; otherwise the distinct named rows join the
  /// running session (growing it to cover them) and every other row keeps
  /// its position, KV and logits bitwise. A seated row restores its first
  /// min(states[i]->len, |prefixes[i]|) positions from states[i] (null or
  /// an empty `states`: none), then steps the rest; each step feeds only
  /// rows that still have prefix left. Bitwise equivalent to stepping
  /// every prefix from position 0 (per-row float op order is batch
  /// invariant; see kv_cache.h). Afterwards every seated row's logits_row()
  /// is valid (a snapshot covering the whole prefix supplies them). Books
  /// the positions into the kv_cache prefill ledger and returns them.
  /// Snapshots are only read during the call.
  Prefill seat(std::span<const std::span<const int>> prefixes,
               std::span<const KvState* const> states = {},
               std::span<const Index> rows = {});

  /// Forks sequence `row` out of this session: copies its per-layer KV
  /// blocks for positions [0, position(row)) and its current logits row
  /// into a standalone KvState. Requires the row to have taken a step.
  KvState snapshot(Index row) const;

  /// Logits row for sequence `i` from its last step.
  std::span<const float> logits_row(Index i) const;

  /// Next position row `i` will be fed (0 after reset).
  Index position(Index i) const { return pos_[static_cast<std::size_t>(i)]; }

  /// Number of sequences in the current batch.
  Index batch() const noexcept { return batch_; }

  const Config& config() const noexcept { return model_->config(); }

  /// The numeric substrate this session runs its projections on.
  Precision precision() const noexcept { return precision_; }

 private:
  /// y[m,n] = x[m,k]·W + bias for one Linear: fp32 affine when `qm` is
  /// null, otherwise quantize-activations + int8 GEMM + dequant.
  void project(Index m, Index n, Index k, const float* x,
               const nn::Linear& lin, const nn::quant::QuantizedMatrix* qm,
               float* y);

  /// Sets the batch to `batch` rows, growing the buffers to fit. Growth
  /// keeps every existing row's KV cache and logits (rows have a fixed
  /// stride, so new rows append); positions are the caller's business.
  void resize(Index batch);

  const GptModel* model_;
  Precision precision_ = Precision::kFp32;
  /// Int8 weight views (owned by the model), non-null iff kInt8.
  const QuantizedWeights* qweights_ = nullptr;
  Index batch_ = 0;
  Index capacity_ = 0;  ///< largest batch the buffers are sized for
  /// Per row: next position to feed. A row's logits row is valid iff its
  /// position is > 0 (step() and seat() both leave it valid).
  std::vector<Index> pos_;
  // Per layer: K and V caches, [batch, context, d_model] flattened.
  std::vector<std::vector<float>> kcache_, vcache_;
  /// Logits by row, [batch, vocab].
  std::vector<float> logits_;
  /// Live rows of the current step, in row order; compact row j of the
  /// scratch buffers below is session row live_[j].
  std::vector<Index> live_;
  // Scratch buffers reused across steps, compact over live rows.
  std::vector<float> x_, h_, qkv_, att_, ff_, live_logits_;
  std::vector<float> scores_;  ///< attention-score scratch, one row
  // Int8 activation scratch (kInt8 only): quantized rows + their scales.
  std::vector<std::int8_t> qx_;
  std::vector<float> qs_;
};

/// One-shot convenience: next-token distribution (softmax of logits) after
/// `prefix` for a single sequence. Builds a throwaway session; use an
/// explicit session for anything hot.
std::vector<float> next_token_distribution(const GptModel& model,
                                           std::span<const int> prefix);

/// log P(ids[1..]) under the model: the sum of next-token log-probabilities
/// of every token after the first (autoregressive chain rule, Eq. 3 of the
/// paper). For a full rule <BOS>‖pattern‖<SEP>‖pw‖<EOS> this is the joint
/// log-probability of the pattern *and* the password — exactly the model's
/// guessing-order score. Requires ids.size() >= 2 and within context.
double sequence_log_prob(const GptModel& model, std::span<const int> ids);

}  // namespace ppg::gpt
