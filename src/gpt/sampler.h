// Batched autoregressive password sampling on top of InferenceSession.
//
// One sampler serves every GPT-based scheme in the repo:
//  * PagPassGPT pattern-guided: prefix = <BOS> pattern <SEP>, no mask;
//  * PagPassGPT free-running:   prefix = <BOS>, no mask (the model emits
//    pattern, <SEP>, password, <EOS> on its own — paper §IV-D);
//  * PassGPT guided filtering:  prefix = <BOS>, mask = pattern filter that
//    zeroes tokens violating the target pattern at each step (§I-A1);
//  * D&C-GEN leaf tasks:        prefix = task prefix, mask = pattern filter
//    from the task's pattern suffix.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpt/infer.h"

namespace ppg::gpt {

/// Sampling knobs.
struct SampleOptions {
  float temperature = 1.0f;
  /// Keep only the k most likely tokens (0 = disabled).
  int top_k = 0;
  /// Nucleus sampling mass (1.0 = disabled).
  double top_p = 1.0;
  /// Sequences decoded per InferenceSession batch.
  Index batch_size = 64;
  /// Give up after count*max_attempt_factor sequences when the model keeps
  /// producing undecodable output (unfinished / malformed rules).
  int max_attempt_factor = 4;
  /// Numeric substrate for the decoding session: kFp32 (reference) or
  /// kInt8 (quantized projections — faster, bounded logits error; see
  /// infer.h). Sampled guesses differ between the two, so the precision
  /// participates in D&C-GEN's journal fingerprint.
  Precision precision = Precision::kFp32;
};

/// Diagnostics of one sampling run.
struct SampleStats {
  std::size_t sequences_run = 0;  ///< total sequences started
  std::size_t invalid = 0;        ///< undecodable or unterminated
  /// Prefix positions fed through step() while priming batches.
  std::size_t prefill_tokens = 0;
  /// Prefix positions skipped by resuming from a cached KvState.
  std::size_t prefill_saved = 0;
};

/// Hook applied to each active sequence's raw logits before sampling;
/// `step` counts tokens generated after the prefix (0-based). Set a logit
/// to a very negative value (e.g. -1e30f) to forbid a token.
using LogitMask = std::function<void(Index step, std::span<float> logits)>;

/// Generates `count` decoded passwords continuing `prefix`. Returned
/// strings may repeat — deduplication is the caller's concern (that is the
/// paper's repeat-rate phenomenon). Undecodable sequences are replaced by
/// fresh draws until `count` is reached or the attempt budget is exhausted.
///
/// When `resume` covers a leading part of `prefix` (resume->len <=
/// prefix.size()), every batch restores those positions from the snapshot
/// and steps only the remainder — bitwise identical to stepping the whole
/// prefix (see kv_cache.h), just cheaper. The snapshot must stay alive
/// (e.g. a pinned KvTrieCache::Handle) for the duration of the call.
std::vector<std::string> sample_passwords(const GptModel& model,
                                          std::span<const int> prefix,
                                          std::size_t count, Rng& rng,
                                          const SampleOptions& opts = {},
                                          const LogitMask& mask = nullptr,
                                          SampleStats* stats = nullptr,
                                          const KvState* resume = nullptr);

/// The decode loop shared by every sampling caller. Decodes each row of a
/// seated session (see InferenceSession::seat) until it samples <EOS>, is
/// fully masked, or reaches the end of the context: step by step, row by
/// row in row order, it masks the row's logits with masks[i] (null or
/// empty = none), samples with rngs[i], and retires the row or feeds it
/// the token. Retired rows sit idle. Rows may share one Rng, which then
/// draws in row order within each step. Returns each row's generated
/// tokens, with the <EOS> when one was sampled.
std::vector<std::vector<int>> decode_rows(InferenceSession& session,
                                          std::span<Rng* const> rngs,
                                          std::span<const LogitMask* const> masks,
                                          const SampleOptions& opts);

/// Samples a token id from raw logits under the given options.
int sample_from_logits(std::span<const float> logits, Rng& rng,
                       const SampleOptions& opts);

}  // namespace ppg::gpt
