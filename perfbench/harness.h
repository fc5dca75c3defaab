// Shared pieces of the ppg_perfbench harness: options, the metric table,
// the synthetic corpus every workload draws from, output checks, registry
// snapshots and trace atlases. See perfbench/README.md for the workloads
// and the meaning of every metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "data/corpus.h"
#include "gpt/model.h"
#include "obs/atlas.h"
#include "obs/json.h"
#include "pcfg/pcfg_model.h"

namespace ppg::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups per untraced run: at least kSetups, repeated until together
/// they take kSetupSpanS. setup_s is their median. On a shared host a
/// short set-up (about 20 ms for ordered_trained) varies by up to half
/// within seconds, so the median must sample seconds, not one moment.
constexpr std::size_t kSetups = 9;
constexpr double kSetupSpanS = 3;

/// Whether a run needs another set-up, given the times of those done so
/// far. A traced run sets up once.
inline bool another_setup(const std::vector<double>& setup_s, bool trace) {
  if (trace) return setup_s.empty();
  double span_s = 0;
  for (const double s : setup_s) span_s += s;
  return setup_s.size() < kSetups || span_s < kSetupSpanS;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the trained model, traces and worker pid files.
  std::string work_dir;
  /// The ppg_serve binary the worker wrapper execs.
  std::string serve_bin;
  /// perfbench/serve_wrapper.sh: sets per-worker trace paths, then execs.
  std::string wrapper;
  /// Self-test hook: corrupt this many outputs before they are checked.
  int corrupt = 0;
};

/// Everything a run reports. `metrics` holds the end-to-end set in an
/// untraced run and the per-layer set in a traced run; `info` lines
/// (digests, training time, sample counts) are printed before the result.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< name -> value
  std::vector<std::string> info;
};

/// The metric tables, in report order: name -> unit. Every workload reports
/// every name of the table its mode selects; a metric a workload does not
/// set (an idle layer) reports 0.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Linear-interpolation percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// Peak resident set (VmHWM) of a live process in MiB; 0 if unreadable.
double peak_rss_mb(pid_t pid);

/// The synthetic rockyou-like corpus (fixed seed: every workload and every
/// run sees the same split) and the PCFG pattern distribution fitted on its
/// train split.
struct Corpus {
  data::Split split;
  pcfg::PcfgModel pcfg;
};
Corpus make_corpus();

/// Flat name -> value view of a metrics-registry JSON snapshot (counters,
/// gauges, and histogram counts as "<name>.count").
using Snapshot = std::map<std::string, double>;
Snapshot snapshot_of(const obs::JsonValue& registry_json);
/// Snapshot of this process's global registry.
Snapshot local_snapshot();
/// b[name] - a[name] (missing names read as 0).
double delta(const Snapshot& a, const Snapshot& b, const std::string& name);

/// True when `password` conforms exactly to `pattern` (e.g. "L6N2").
bool conforms(const std::string& password, const std::string& pattern);

/// Order-sensitive FNV-1a digest of an output list.
std::uint64_t digest(const std::vector<std::string>& outputs);
std::string hex(std::uint64_t v);

/// Builds one atlas from several Chrome-trace files (one per process).
/// Thread ids are offset per file so spans of different processes never
/// nest into each other. Unreadable or empty files are skipped.
std::optional<obs::Atlas> merged_atlas(const std::vector<std::string>& files);

/// The atlas row for a span name, or an all-zero row when absent.
obs::AtlasEntry atlas_entry(const obs::Atlas& atlas, const std::string& name);

/// Per-layer metrics shared by every workload, computed from registry
/// deltas (R), an atlas of the traced phase (S) and the model config (C).
struct LayerInputs {
  Snapshot before, after;   ///< registry around the traced phase
  obs::Atlas atlas;         ///< spans of the traced phase
  double wall_s = 0;        ///< traced-phase wall time
  int lanes = 1;            ///< threads that run forward steps
  double guesses = 0;       ///< valid guesses of the traced phase
  gpt::Config model;        ///< shape of the model that ran
  double kv_resident_mb_peak = 0;
};
void add_model_layers(const LayerInputs& in, RunResult& out);

// Workloads (workloads_dcgen.cpp, workload_fleet.cpp).
RunResult run_dcgen_bulk(const Options& opt);
RunResult run_ordered_trained(const Options& opt);
RunResult run_fleet_mix(const Options& opt);

}  // namespace ppg::perfbench
