// ppg_perfbench: the repository benchmark (see perfbench/README.md).
//
//   ppg_perfbench --workload dcgen_bulk|fleet_mix|ordered_trained
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//                 --serve-bin PATH --wrapper PATH [--corrupt K]
//
// perfbench/run.py builds this binary and passes the paths. The last line
// of stdout is one JSON object: {"correct","attempted","failed","metrics"},
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1. Lines before it are human-readable: every metric by name
// and unit, the output digest, and sample counts.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "common/cli.h"
#include "harness.h"

using namespace ppg;
using namespace ppg::perfbench;

namespace {

/// %.17g round-trips every double: values are printed as measured.
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    const Cli cli(argc, argv, {"workload", "seed", "seconds", "trace",
                               "work-dir", "serve-bin", "wrapper", "corrupt"});
    opt.workload = cli.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    opt.seconds = cli.get_double("seconds", 10);
    opt.trace = cli.get_int("trace", 0) != 0;
    opt.work_dir = cli.get("work-dir", "");
    opt.serve_bin = cli.get("serve-bin", "");
    opt.wrapper = cli.get("wrapper", "");
    opt.corrupt = static_cast<int>(cli.get_int("corrupt", 0));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppg_perfbench: %s\n", e.what());
    return 2;
  }
  if (opt.work_dir.empty() || opt.seconds <= 0) {
    std::fprintf(stderr, "ppg_perfbench: --work-dir and --seconds > 0 needed\n");
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);

  RunResult r;
  try {
    if (opt.workload == "dcgen_bulk") {
      r = run_dcgen_bulk(opt);
    } else if (opt.workload == "fleet_mix") {
      r = run_fleet_mix(opt);
    } else if (opt.workload == "ordered_trained") {
      r = run_ordered_trained(opt);
    } else {
      std::fprintf(stderr, "ppg_perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppg_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  const auto& table = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::set<std::string> expected;
  for (const auto& [name, unit] : table) expected.insert(name);
  for (const auto& [name, value] : r.metrics)
    if (!expected.contains(name)) {
      std::fprintf(stderr, "ppg_perfbench: unlisted metric %s\n", name.c_str());
      return 1;
    }

  for (const auto& line : r.info) std::printf("# %s\n", line.c_str());
  for (const auto& [name, unit] : table)
    std::printf("# %-28s %20.6f %s\n", name.c_str(), r.metrics[name],
                unit.c_str());

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : table) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number(r.metrics[name]) +
            ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
