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
/// prefix (see kv_cache.h), just cheaper. The caller keeps the snapshot
/// alive (e.g. holds its shared_ptr) for the duration of the call.
std::vector<std::string> sample_passwords(const GptModel& model,
                                          std::span<const int> prefix,
                                          std::size_t count, Rng& rng,
                                          const SampleOptions& opts = {},
                                          const LogitMask& mask = nullptr,
                                          SampleStats* stats = nullptr,
                                          const KvState* resume = nullptr);

/// Decode state of one session row (see decode_step).
struct DecodeRow {
  Rng* rng = nullptr;               ///< draws the row's tokens; may be shared
  const LogitMask* mask = nullptr;  ///< null or empty: no mask
  std::vector<int> tokens;          ///< generated so far, <EOS> included
  bool live = false;                ///< false: retired or free; sits idle
};

/// One step of the decode loop shared by every sampling caller. For each
/// live row, in row order, it masks a copy of the row's logits with
/// mask(tokens.size(), ...), samples with rng, appends the token, and
/// retires the row (live = false) when it sampled <EOS>, was fully masked
/// (nothing appended), or would fill the context. It then steps the
/// session once, feeding every row still live its new token; all other
/// rows sit idle. Rows sharing one Rng draw in row order. Live rows must
/// have valid logits (seated, see InferenceSession::seat), and
/// rows.size() == session.batch(). Returns the number of rows still live.
std::size_t decode_step(InferenceSession& session, std::span<DecodeRow> rows,
                        const SampleOptions& opts);

/// Samples a token id from raw logits under the given options.
int sample_from_logits(std::span<const float> logits, Rng& rng,
                       const SampleOptions& opts);

}  // namespace ppg::gpt
