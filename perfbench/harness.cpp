#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "pcfg/pattern.h"

namespace ppg::perfbench {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kTable = {
      {"guesses_per_sec", "1/s"}, {"p50_ms", "ms"},     {"p95_ms", "ms"},
      {"ok_frac", "frac"},        {"setup_s", "s"},     {"peak_rss_mb", "MiB"},
  };
  return kTable;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kTable = {
      {"nn.gflop_per_guess", "GFLOP"},
      {"nn.achieved_gflops", "GFLOP/s"},
      {"nn.weight_bytes_per_row", "B"},
      {"gpt.step_ms_p50", "ms"},
      {"gpt.step_ms_p99", "ms"},
      {"gpt.rows_per_step", "rows"},
      {"gpt.tokens_per_guess", "tokens"},
      {"gpt.busy_frac", "frac"},
      {"gpt.prefill_frac", "frac"},
      {"gpt.invalid_frac", "frac"},
      {"gpt.kv_hit_ratio", "frac"},
      {"gpt.kv_prefill_saved_frac", "frac"},
      {"gpt.kv_evictions", "count"},
      {"gpt.kv_resident_mb_peak", "MiB"},
      {"core.division_s", "s"},
      {"core.leaf_s", "s"},
      {"core.model_calls", "count"},
      {"core.leaves", "count"},
      {"core.unique_frac", "frac"},
      {"core.hit_rate", "frac"},
      {"search.expand_ms_p50", "ms"},
      {"search.self_frac", "frac"},
      {"search.expansions_per_guess", "count"},
      {"search.truncated", "count"},
      {"search.heap_peak", "nodes"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"serve.rows_per_batch", "rows"},
      {"serve.rejected", "count"},
      {"serve.timeouts", "count"},
      {"serve.batch_ms_p50", "ms"},
      {"fleet.overhead_ms_p50", "ms"},
      {"fleet.overhead_ms_p99", "ms"},
      {"fleet.retries", "count"},
      {"fleet.shed", "count"},
      {"fleet.rejected", "count"},
      {"fleet.worker_skew", "ratio"},
      {"fleet.cache_affine_frac", "frac"},
      {"bench.generator_lag_p99_ms", "ms"},
      {"bench.trace_overhead_frac", "frac"},
  };
  return kTable;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - double(lo));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0;
}

Corpus make_corpus() {
  // Fixed corpus seed: the split is part of the benchmark definition, not
  // of a run's inputs, so the ordered workload's trained model and test
  // split always match.
  constexpr std::uint64_t kCorpusSeed = 2024;
  data::SiteProfile profile = data::rockyou_profile();
  profile.unique_target = 24000;
  Corpus c;
  c.split = data::split_712(
      data::clean(data::generate_site(profile, kCorpusSeed)).passwords,
      kCorpusSeed);
  c.pcfg.train(c.split.train);
  return c;
}

Snapshot snapshot_of(const obs::JsonValue& registry_json) {
  Snapshot s;
  for (const char* section : {"counters", "gauges"})
    if (const auto* obj = registry_json.find(section))
      for (const auto& [name, v] : obj->object) s[name] = v.number;
  if (const auto* hist = registry_json.find("histograms"))
    for (const auto& [name, v] : hist->object)
      s[name + ".count"] = v.get_number("count").value_or(0);
  return s;
}

Snapshot local_snapshot() {
  const auto parsed = obs::parse_json(obs::Registry::global().to_json());
  return parsed ? snapshot_of(*parsed) : Snapshot{};
}

double delta(const Snapshot& a, const Snapshot& b, const std::string& name) {
  const auto get = [&](const Snapshot& s) {
    const auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
  };
  return get(b) - get(a);
}

bool conforms(const std::string& password, const std::string& pattern) {
  const auto segs = pcfg::parse_pattern(pattern);
  return segs && !password.empty() && pcfg::matches_pattern(password, *segs);
}

std::uint64_t digest(const std::vector<std::string>& outputs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& s : outputs) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // separator: ["ab","c"] and ["a","bc"] differ
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

/// The event array of one trace file, thread ids offset by `tid_offset`.
std::string trace_events(const std::string& path, int tid_offset) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  // A worker ended by SIGKILL leaves an unterminated array, possibly cut
  // mid-event: keep the events up to the last complete one.
  const auto open = text.find('[');
  auto close = text.rfind("]}");
  if (close == std::string::npos || close < open) {
    close = text.rfind("},\n");
    if (close != std::string::npos) ++close;
  }
  if (open == std::string::npos || close == std::string::npos || close <= open)
    return {};
  text = text.substr(open + 1, close - open - 1);
  std::string out;
  out.reserve(text.size() + text.size() / 16);
  static const std::string kTid = "\"tid\":";
  std::size_t pos = 0;
  for (;;) {
    const auto at = text.find(kTid, pos);
    if (at == std::string::npos) break;
    std::size_t end = at + kTid.size();
    while (end < text.size() && (std::isdigit(text[end]) || text[end] == '-'))
      ++end;
    const int tid = std::stoi(text.substr(at + kTid.size(), end - at));
    out.append(text, pos, at - pos);
    out += kTid + std::to_string(tid + tid_offset);
    pos = end;
  }
  out.append(text, pos, std::string::npos);
  return out;
}

}  // namespace

std::optional<obs::Atlas> merged_atlas(const std::vector<std::string>& files) {
  std::string merged = "{\"traceEvents\":[";
  bool any = false;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string events =
        trace_events(files[i], static_cast<int>(i) * 100000);
    if (events.find('{') == std::string::npos) continue;
    if (any) merged += ',';
    merged += events;
    any = true;
  }
  merged += "]}";
  std::string error;
  auto atlas = obs::build_atlas_from_json(merged, &error);
  if (!atlas) std::fprintf(stderr, "perfbench: atlas failed: %s\n", error.c_str());
  return atlas;
}

obs::AtlasEntry atlas_entry(const obs::Atlas& atlas, const std::string& name) {
  for (const auto& e : atlas.entries)
    if (e.name == name) return e;
  return obs::AtlasEntry{};
}

void add_model_layers(const LayerInputs& in, RunResult& out) {
  const auto set = [&](const std::string& name, double v) {
    out.metrics[name] = std::isfinite(v) ? v : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto d = [&](const char* name) { return delta(in.before, in.after, name); };

  // C: GEMM work of one token row through the stack — qkv 3d², out-proj
  // d², fc1 4d², fc2 4d² per layer, plus the d×V lm_head. Attention's
  // position-dependent score/value products are left out.
  const double dm = double(in.model.d_model);
  const double gemm_params = 12.0 * dm * dm * double(in.model.n_layers) +
                             dm * double(in.model.vocab);
  const double rows = d("infer.tokens");
  const double steps = d("infer.steps");
  const obs::AtlasEntry step = atlas_entry(in.atlas, "infer/step");
  const double rows_per_step = ratio(rows, steps);
  set("nn.gflop_per_guess", ratio(2.0 * gemm_params * rows, in.guesses) / 1e9);
  set("nn.achieved_gflops",
      ratio(2.0 * gemm_params * rows, step.total_us * 1e-6) / 1e9);
  set("nn.weight_bytes_per_row", ratio(gemm_params * 4.0, rows_per_step));

  set("gpt.step_ms_p50", step.p50_us / 1000.0);
  set("gpt.step_ms_p99", step.p99_us / 1000.0);
  set("gpt.rows_per_step", rows_per_step);
  set("gpt.tokens_per_guess", ratio(rows, in.guesses));
  set("gpt.busy_frac", ratio(step.total_us * 1e-6, in.wall_s * in.lanes));
  set("gpt.prefill_frac", ratio(d("kv_cache.prefill_tokens"), rows));

  const double hits = d("kv_cache.hits"), misses = d("kv_cache.misses");
  const double saved = d("kv_cache.prefill_saved");
  set("gpt.kv_hit_ratio", ratio(hits, hits + misses));
  set("gpt.kv_prefill_saved_frac",
      ratio(saved, saved + d("kv_cache.prefill_tokens")));
  set("gpt.kv_evictions", d("kv_cache.evictions"));
  set("gpt.kv_resident_mb_peak", in.kv_resident_mb_peak);

  const obs::AtlasEntry expand = atlas_entry(in.atlas, "search/expand");
  set("search.expand_ms_p50", expand.p50_us / 1000.0);
  set("search.self_frac", ratio(expand.self_us, expand.total_us));
  set("search.expansions_per_guess",
      ratio(d("search.nodes_expanded"), in.guesses));
  set("search.truncated", d("search.truncated"));
}

}  // namespace ppg::perfbench
