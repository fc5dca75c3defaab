// The two offline workloads: dcgen_bulk (sampled D&C-GEN at the paper
// config, random weights) and ordered_trained (ordered D&C-GEN on a small
// PagPassGPT the benchmark trains once). Both drive core::dc_generate only.
//
// A run repeats one identical D&C-GEN job until --seconds have passed. The
// job is deterministic in (model, patterns, config, seed), so every repeat
// must return the warm-up job's exact output; a repeat that does not fails
// all of its guesses.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <unistd.h>
#include <unordered_set>

#include "common/rng.h"
#include "core/dcgen.h"
#include "core/pagpassgpt.h"
#include "eval/metrics.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppg::perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kLeafThreads = 2;  ///< D&C-GEN leaf threads in both workloads

/// dcgen_bulk: guesses per job, and the patterns it spans. At 800 guesses
/// the head pattern (8.3% of the train split) gets 66 > T = 64 guesses and
/// is divided (random weights split it almost evenly over the 52 letters,
/// into about 36 leaves of one or two guesses; smaller children are
/// dropped); the next three patterns are leaves of 46-60 guesses, sampled
/// as one batch each. Keeping only these four patterns makes a job about
/// 1.2 s on a 4-vCPU x86 host, so a run holds 20 or more jobs and its
/// medians are over that many samples; the tail patterns would only add
/// more tiny leaves.
constexpr double kBulkTotal = 800;
constexpr std::size_t kBulkPatterns = 4;

/// ordered_trained: guesses per job, and the ordered-leaf budgets. The node
/// cap is below the frontier size that the largest leaves reach, so those
/// leaves run into enforce_budgets' frontier truncation.
constexpr double kOrderedTotal = 300;
constexpr std::size_t kOrderedMaxNodes = 512;
constexpr std::size_t kOrderedMaxExpansions = 4096;

struct Jobs {
  std::vector<double> latency_s;  ///< one entry per repeat
  std::vector<double> valid;      ///< valid guesses, one entry per repeat
  std::uint64_t guesses = 0;      ///< returned, all repeats
  std::uint64_t failed = 0;       ///< failing the output checks
  std::map<std::string, std::uint64_t> failures;  ///< by check
  std::uint64_t digest = 0;       ///< of the warm-up job
  std::vector<std::string> first; ///< warm-up job's output
  core::DcGenStats first_stats;   ///< warm-up job's stats
  /// Median over the repeats of one job's valid guesses over its time: a
  /// shared host's speed drifts within a run, and a median of many short
  /// jobs follows that drift less than a sum does.
  double guesses_per_sec() const {
    std::vector<double> rate;
    for (std::size_t i = 0; i < latency_s.size(); ++i)
      rate.push_back(valid[i] / latency_s[i]);
    return percentile(rate, 0.5);
  }
};

/// Guesses that fail the checks, counted into `failures` by check: each
/// must conform to a pattern of the distribution (strict leaves mask every
/// position to its pattern class); ordered output must also be
/// duplicate-free.
std::uint64_t check_output(const std::vector<std::string>& out,
                           const pcfg::PatternDistribution& patterns,
                           bool unique,
                           std::map<std::string, std::uint64_t>& failures) {
  std::uint64_t bad = 0;
  std::unordered_set<std::string> seen;
  for (const auto& g : out) {
    const std::string p = pcfg::pattern_of(g);
    const char* why = nullptr;
    if (p.empty() || patterns.prob(p) <= 0)
      why = "nonconforming";
    else if (unique && !seen.insert(g).second)
      why = "duplicate";
    if (why != nullptr) {
      ++bad;
      ++failures[why];
    }
  }
  return bad;
}

/// Self-test hook: breaks `k` guesses of one job's output, into copies of
/// the first guess where output must be duplicate-free, else into a string
/// that conforms to no pattern.
void corrupt_output(std::vector<std::string>& out, int k, bool unique) {
  for (int i = 1; i <= k && i < int(out.size()); ++i)
    out[i] = unique ? out[0] : " ";
}

/// Repeats the job for `seconds`. Without a `reference`, one unmeasured
/// warm-up job runs first and becomes the reference every measured repeat
/// must reproduce.
Jobs run_jobs(const gpt::GptModel& model,
              const pcfg::PatternDistribution& patterns,
              const core::DcGenConfig& cfg, std::uint64_t seed, double seconds,
              bool unique, int corrupt, const Jobs* reference = nullptr) {
  Jobs r;
  if (reference != nullptr) {
    r.first = reference->first;
    r.first_stats = reference->first_stats;
  } else {
    r.first = core::dc_generate(model, patterns, cfg, seed, &r.first_stats);
  }
  r.digest = digest(r.first);
  const auto t0 = Clock::now();
  do {
    const auto tj = Clock::now();
    auto out = core::dc_generate(model, patterns, cfg, seed);
    r.latency_s.push_back(seconds_since(tj));
    if (r.latency_s.size() == 1) corrupt_output(out, corrupt, unique);
    std::uint64_t bad = check_output(out, patterns, unique, r.failures);
    if (digest(out) != r.digest) {
      ++r.failures["digest_mismatch"];
      bad = out.size();
    }
    r.guesses += out.size();
    r.failed += bad;
    r.valid.push_back(double(out.size() - bad));
  } while (seconds_since(t0) < seconds);
  return r;
}

double hit_rate(const std::vector<std::string>& guesses,
                const eval::TestSet& test) {
  std::unordered_set<std::string> found;
  for (const auto& g : guesses)
    if (test.contains(g)) found.insert(g);
  return test.size() == 0 ? 0.0 : double(found.size()) / double(test.size());
}

/// Polls the registry gauges that only hold a last-written value, keeping
/// their peaks over a traced phase.
class GaugePeaks {
 public:
  GaugePeaks()
      : thread_([this] {
          auto& r = obs::Registry::global();
          obs::Gauge& kv = r.gauge("kv_cache.bytes");
          obs::Gauge& heap = r.gauge("search.heap_peak");
          while (!stop_.load()) {
            kv_bytes_ = std::max(kv_bytes_.load(), kv.value());
            heap_ = std::max(heap_.load(), heap.value());
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}
  ~GaugePeaks() { finish(); }
  GaugePeaks(const GaugePeaks&) = delete;
  GaugePeaks& operator=(const GaugePeaks&) = delete;
  void finish() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  double kv_mb() const { return kv_bytes_.load() / (1024.0 * 1024.0); }
  double heap() const { return heap_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> kv_bytes_{0}, heap_{0};
  std::thread thread_;
};

/// One offline workload: a model, its patterns, and a job config.
struct Offline {
  const gpt::GptModel* model = nullptr;
  const pcfg::PatternDistribution* patterns = nullptr;
  const Corpus* corpus = nullptr;
  core::DcGenConfig cfg;
  std::uint64_t seed = 0;
  bool unique = false;
};

RunResult measure(const Offline& w, const Options& opt,
                  const std::vector<double>& setup_s) {
  RunResult out;
  const eval::TestSet test(w.corpus->split.test);
  if (!opt.trace) {
    const Jobs jobs = run_jobs(*w.model, *w.patterns, w.cfg, w.seed,
                               opt.seconds, w.unique, opt.corrupt);
    std::vector<double> lat_ms;
    for (const double l : jobs.latency_s) lat_ms.push_back(l * 1000.0);
    const double valid = double(jobs.guesses - jobs.failed);
    out.attempted = jobs.guesses;
    out.failed = jobs.failed;
    out.metrics["guesses_per_sec"] = jobs.guesses_per_sec();
    out.metrics["p50_ms"] = percentile(lat_ms, 0.50);
    out.metrics["p95_ms"] = percentile(lat_ms, 0.95);
    out.metrics["ok_frac"] =
        jobs.guesses == 0 ? 0.0 : valid / double(jobs.guesses);
    out.metrics["setup_s"] = percentile(setup_s, 0.5);
    out.metrics["peak_rss_mb"] = peak_rss_mb(getpid());
    out.info.push_back("output_digest " + hex(jobs.digest) + " (" +
                       std::to_string(jobs.first.size()) + " guesses)");
    out.info.push_back("jobs " + std::to_string(jobs.latency_s.size()) +
                       " (p50_ms/p95_ms are per-job latencies), set-ups " +
                       std::to_string(setup_s.size()));
    char buf[128];
    std::snprintf(buf, sizeof buf, "hit_rate %.6f frac (test size %zu)",
                  hit_rate(jobs.first, test), test.size());
    out.info.push_back(buf);
    std::snprintf(buf, sizeof buf, "failed_frac %.6f frac",
                  jobs.guesses == 0 ? 1.0
                                    : double(jobs.failed) / double(jobs.guesses));
    out.info.push_back(buf);
    for (const auto& [why, n] : jobs.failures)
      out.info.push_back("failed " + why + " " + std::to_string(n));
    return out;
  }

  // Traced run: an untraced half, then a traced half of the same jobs.
  const double half = opt.seconds / 2;
  const Jobs plain = run_jobs(*w.model, *w.patterns, w.cfg, w.seed, half,
                              w.unique, opt.corrupt);
  const std::string trace_file = opt.work_dir + "/trace_" + opt.workload +
                                 ".json";
  LayerInputs in;
  in.before = local_snapshot();
  obs::set_timing_enabled(true);
  obs::trace_start(trace_file);
  GaugePeaks peaks;
  const auto t0 = Clock::now();
  const Jobs traced = run_jobs(*w.model, *w.patterns, w.cfg, w.seed, half,
                               w.unique, opt.corrupt, &plain);
  in.wall_s = seconds_since(t0);
  peaks.finish();
  obs::trace_stop();
  obs::set_timing_enabled(false);
  in.after = local_snapshot();
  if (auto atlas = merged_atlas({trace_file})) in.atlas = std::move(*atlas);
  in.lanes = kLeafThreads;
  in.guesses = double(traced.guesses - traced.failed);
  in.kv_resident_mb_peak = peaks.kv_mb();
  in.model = w.model->config();
  add_model_layers(in, out);

  const double jobs = double(traced.latency_s.size());
  const core::DcGenStats& st = traced.first_stats;
  out.metrics["core.division_s"] =
      atlas_entry(in.atlas, "dcgen/division_batch").total_us * 1e-6 / jobs;
  out.metrics["core.leaf_s"] =
      atlas_entry(in.atlas, "dcgen/leaf").total_us * 1e-6 / jobs;
  out.metrics["core.model_calls"] = double(st.model_calls);
  out.metrics["core.leaves"] = double(st.leaves);
  out.metrics["core.unique_frac"] =
      st.emitted == 0 ? 0.0 : double(st.unique_emitted) / double(st.emitted);
  out.metrics["core.hit_rate"] = hit_rate(traced.first, test);
  out.metrics["search.heap_peak"] = peaks.heap();
  out.metrics["bench.trace_overhead_frac"] =
      1.0 - traced.guesses_per_sec() / plain.guesses_per_sec();
  out.attempted = plain.guesses + traced.guesses;
  out.failed = plain.failed + traced.failed;
  return out;
}

/// The ordered workload's model: trained once per checkout into the work
/// dir, deterministically (fixed corpus, seed and config), and loaded by
/// every later run. Returns the training time, or a negative value when a
/// saved model loaded.
double ensure_trained(const std::string& ckpt) {
  if (fs::exists(ckpt)) {
    try {
      core::PagPassGPT(gpt::Config::small(), 0).load(ckpt);
      return -1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: retraining, load failed: %s\n",
                   e.what());
    }
  }
  const auto t0 = Clock::now();
  const Corpus corpus = make_corpus();
  core::PagPassGPT pag(gpt::Config::small(), hash64("perfbench.small"));
  gpt::TrainConfig tc;
  tc.epochs = 10;
  tc.batch_size = 64;
  tc.lr = 2e-3f;
  tc.seed = 2024;
  const std::size_t cap = std::min<std::size_t>(corpus.split.train.size(), 12000);
  pag.train({corpus.split.train.data(), cap}, corpus.split.valid, tc);
  // Save under a temporary name so a killed run never leaves a torn model.
  const std::string tmp = ckpt + ".tmp";
  pag.save(tmp);
  fs::rename(tmp + ".patterns", ckpt + ".patterns");
  fs::rename(tmp, ckpt);
  return seconds_since(t0);
}

}  // namespace

RunResult run_dcgen_bulk(const Options& opt) {
  // Weights are seeded random: D&C-GEN's cost does not depend on training,
  // and training the paper config does not fit a benchmark run.
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<gpt::GptModel> model;
  std::vector<double> setup_s;
  while (another_setup(setup_s, opt.trace)) {
    model.reset();
    corpus.reset();
    const auto t0 = Clock::now();
    corpus = std::make_unique<Corpus>(make_corpus());
    model = std::make_unique<gpt::GptModel>(gpt::Config::paper(),
                                            hash64("perfbench.paper"));
    setup_s.push_back(seconds_since(t0));
  }
  Offline w;
  w.model = model.get();
  w.patterns = &corpus->pcfg.patterns();
  w.corpus = corpus.get();
  w.cfg.total = kBulkTotal;
  w.cfg.max_patterns = kBulkPatterns;
  w.cfg.threads = kLeafThreads;
  w.seed = opt.seed ^ hash64("perfbench.dcgen_bulk");
  return measure(w, opt, setup_s);
}

RunResult run_ordered_trained(const Options& opt) {
  const std::string ckpt = opt.work_dir + "/ordered_small.ckpt";
  const double train_s = ensure_trained(ckpt);

  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<core::PagPassGPT> pag;
  std::vector<double> setup_s;
  while (another_setup(setup_s, opt.trace)) {
    pag.reset();
    corpus.reset();
    const auto t0 = Clock::now();
    corpus = std::make_unique<Corpus>(make_corpus());
    pag = std::make_unique<core::PagPassGPT>(gpt::Config::small(), 0);
    pag->load(ckpt);
    setup_s.push_back(seconds_since(t0));
  }
  Offline w;
  w.model = &pag->model();
  w.patterns = &pag->patterns();
  w.corpus = corpus.get();
  w.cfg.total = kOrderedTotal;
  w.cfg.threads = kLeafThreads;
  w.cfg.leaf_mode = core::LeafMode::kOrdered;
  w.cfg.ordered_max_nodes = kOrderedMaxNodes;
  w.cfg.ordered_max_expansions = kOrderedMaxExpansions;
  // Ordered leaves draw no random numbers: the seed cannot change output.
  w.seed = opt.seed;
  w.unique = true;
  RunResult out = measure(w, opt, setup_s);
  if (train_s >= 0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "train_s %.3f (not in setup_s)", train_s);
    out.info.insert(out.info.begin(), buf);
  }
  return out;
}

}  // namespace ppg::perfbench
