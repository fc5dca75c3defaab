// fleet_mix: open-loop traffic at a fixed Poisson rate from one generator
// thread, in process, through fleet::Router into two real ppg_serve worker
// processes at the paper config.
//
// Every request is timed from its *scheduled* send time, so a stall in the
// generator, the router or a worker delays every later request's number
// instead of silently lowering the offered load. The workers are spawned
// through perfbench/serve_wrapper.sh, which gives each worker its own
// trace file in traced runs.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <limits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <unordered_set>

#include "common/net.h"
#include "common/rng.h"
#include "fleet/router.h"
#include "harness.h"
#include "obs/metrics.h"
#include "serve/wire.h"

namespace ppg::perfbench {

namespace {

namespace fs = std::filesystem;

/// Offered load, requests per second. Fixed once for the benchmark (set
/// from the parent commit at a rate with no growing backlog) and never
/// derived per run; BENCHMARK.json's fleet_mix entry states the same rate.
constexpr double kRatePerSec = 12;
/// Leading traffic that warms the prefix caches and is not measured.
constexpr double kWarmupS = 2;
constexpr std::size_t kWorkers = 2;
/// Worker queue deadline carried by every request (a timeout is a failure).
constexpr double kTimeoutMs = 2000;
/// How long to wait for stragglers once the schedule has been sent, and the
/// latency a failed request is counted with (a failure misses every limit).
constexpr double kDrainMs = 30000;

struct Planned {
  double at_s = 0;  ///< send time, from the start of the schedule
  bool measured = false;
  std::string line;
  serve::WireRequest req;
};

/// The request schedule for `span_s` seconds at kRatePerSec. The traffic
/// mix is fixed and stratified, so runs with different seeds offer the same
/// work: 84% pattern count-1 and 8% pattern count-8 requests, whose patterns
/// take quotas in proportion to their probability on the train split (head
/// patterns repeat and stay in their worker's prefix cache, the tail
/// misses), and 8% prefix requests (strength meter: a typed prefix of a
/// test-split password). The 84/8/8 shares are a choice, not a measurement.
/// The seed draws the order of the requests, the prefix requests' passwords
/// and every request's sampling seed; the arrival times are fixed (see
/// below).
/// There are no free requests: with random weights the model never
/// completes a free-form rule, so every one would fail (after holding its
/// worker for four full-context decodes).
std::vector<Planned> plan(const Corpus& corpus, std::uint64_t seed,
                          double span_s) {
  Rng rng(seed, "perfbench.fleet_mix");
  const auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[rng.uniform_u64(i)]);
  };
  const auto n = static_cast<std::size_t>(std::lround(kRatePerSec * span_s));
  const auto n_count8 = static_cast<std::size_t>(std::lround(0.08 * double(n)));
  const auto n_prefix = n_count8;
  const std::size_t n_pattern = n - n_prefix;

  // Pattern quotas by largest remainder.
  const auto& ranked = corpus.pcfg.patterns().sorted();
  std::vector<std::size_t> quota(ranked.size());
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    const double exact = double(n_pattern) * ranked[r].second;
    quota[r] = static_cast<std::size_t>(exact);
    assigned += quota[r];
    remainder.push_back({quota[r] - exact, r});  // most negative first
  }
  std::sort(remainder.begin(), remainder.end());
  for (std::size_t i = 0; assigned < n_pattern; ++i, ++assigned)
    ++quota[remainder[i].second];
  std::vector<const std::string*> patterns;
  for (std::size_t r = 0; r < ranked.size(); ++r)
    for (std::size_t k = 0; k < quota[r]; ++k) patterns.push_back(&ranked[r].first);
  shuffle(patterns);

  // Request kinds: 0 = pattern count-1, 1 = pattern count-8, 2 = prefix.
  std::vector<int> kinds(n, 0);
  std::fill(kinds.begin(), kinds.begin() + std::ptrdiff_t(n_count8), 1);
  std::fill(kinds.begin() + std::ptrdiff_t(n_count8),
            kinds.begin() + std::ptrdiff_t(n_count8 + n_prefix), 2);
  shuffle(kinds);

  // One Poisson sample path (conditioned on the request count) shared by
  // every seed: tail latency is set by the arrival bursts, and a 25 s run
  // holds too few of them for their luck to average out across seeds.
  Rng arrivals(0, "perfbench.fleet_mix.arrivals");
  std::vector<double> times(n);
  for (auto& t : times) t = arrivals.uniform() * span_s;
  std::sort(times.begin(), times.end());

  const auto& test = corpus.split.test;
  std::vector<Planned> out(n);
  std::size_t next_pattern = 0;
  for (std::size_t i = 0; i < n; ++i) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("op").value("guess");
    w.key("id").value("r" + std::to_string(i));
    if (kinds[i] == 2) {
      const std::string& pw = test[rng.uniform_u64(test.size())];
      const auto keep = static_cast<std::size_t>(
          rng.uniform_int(1, std::int64_t(pw.size()) - 1));
      w.key("kind").value("prefix");
      w.key("pattern").value(pcfg::pattern_of(pw));
      w.key("prefix").value(pw.substr(0, keep));
      w.key("count").value(std::uint64_t{1});
    } else {
      w.key("kind").value("pattern");
      w.key("pattern").value(*patterns[next_pattern++]);
      w.key("count").value(std::uint64_t{kinds[i] == 1 ? 8u : 1u});
    }
    w.key("seed").value(std::uint64_t{rng() >> 16});
    w.key("timeout_ms").value(kTimeoutMs);
    w.end_object();
    Planned& p = out[i];
    p.at_s = times[i];
    p.measured = times[i] >= kWarmupS;
    p.line = w.take();
    std::string error;
    auto parsed = serve::parse_request_line(p.line, &error);
    if (!parsed)
      throw std::runtime_error("planned a malformed line: " + error + ": " +
                               p.line);
    p.req = std::move(*parsed);
  }
  return out;
}

/// A stats-op connection straight to one worker (the router's own stats op
/// reports a single worker).
class WorkerStats {
 public:
  explicit WorkerStats(int port)
      : fd_(net::connect_loopback(port, net::Deadline::after_ms(5000))),
        reader_(fd_.get(), 0, 10000) {
    if (!fd_.valid())
      throw std::runtime_error("cannot connect to worker port " +
                               std::to_string(port));
  }
  Snapshot get() {
    const std::string line = "{\"op\":\"stats\",\"id\":\"perfbench\"}\n";
    std::string resp;
    if (net::write_all(fd_.get(), line, net::Deadline::after_ms(5000)) !=
            net::IoStatus::kOk ||
        reader_.next(&resp) != net::LineReader::Result::kLine)
      throw std::runtime_error("worker stats op failed");
    const auto v = obs::parse_json(resp);
    const obs::JsonValue* m = v ? v->find("metrics") : nullptr;
    if (m == nullptr) throw std::runtime_error("worker stats: no metrics");
    return snapshot_of(*m);
  }

 private:
  net::ScopedFd fd_;
  net::LineReader reader_;
};

Snapshot sum(const std::vector<Snapshot>& parts) {
  Snapshot total;
  for (const auto& s : parts)
    for (const auto& [k, v] : s) total[k] += v;
  return total;
}

/// One spawned fleet plus the paths its wrapper writes.
struct Fleet {
  std::unique_ptr<fleet::Router> router;
  std::string pid_dir;

  std::vector<pid_t> worker_pids() const {
    std::vector<pid_t> pids;
    for (const auto& e : fs::directory_iterator(pid_dir))
      pids.push_back(static_cast<pid_t>(std::stol(e.path().stem().string())));
    return pids;
  }
};

Fleet start_fleet(const Options& opt, const std::string& trace_dir) {
  Fleet f;
  f.pid_dir = opt.work_dir + "/worker_pids";
  fs::remove_all(f.pid_dir);
  fs::create_directories(f.pid_dir);
  fs::permissions(opt.wrapper, fs::perms::owner_exec | fs::perms::group_exec,
                  fs::perm_options::add);
  setenv("PPG_PERFBENCH_SERVE", opt.serve_bin.c_str(), 1);
  setenv("PPG_PERFBENCH_PID_DIR", f.pid_dir.c_str(), 1);
  if (trace_dir.empty())
    unsetenv("PPG_PERFBENCH_TRACE_DIR");
  else
    setenv("PPG_PERFBENCH_TRACE_DIR", trace_dir.c_str(), 1);

  fleet::RouterConfig cfg;
  cfg.workers = kWorkers;
  cfg.serve_bin = opt.wrapper;
  // Random paper-config weights: decode cost does not depend on training.
  cfg.worker_args = {"--config", "paper", "--seed", "17", "--workers", "1"};
  f.router = std::make_unique<fleet::Router>(cfg);
  std::string error;
  if (!f.router->start(&error))
    throw std::runtime_error("fleet start failed: " + error);
  // The router's connect succeeds on the pre-bound socket before a worker
  // has built its model; a stats answer proves the worker is serving.
  for (std::size_t k = 0; k < kWorkers; ++k)
    WorkerStats(f.router->worker_port(k)).get();
  return f;
}

struct Outcome {
  std::string response;
  double submitted_s = 0;  ///< actual send, from the schedule start
  double done_s = -1;      ///< response arrival; < 0 when never answered
};

/// Sends the schedule open-loop and collects every response. A worker
/// answers its connection strictly in request order, so one collector per
/// home worker blocks on that worker's futures in submission order and
/// timestamps each answer as it lands, without polling.
std::vector<Outcome> drive(fleet::Router& router,
                           const std::vector<Planned>& schedule) {
  std::vector<Outcome> out(schedule.size());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  const auto since_t0 = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<std::size_t, std::future<std::string>>> queue;
    bool closed = false;
  };
  std::vector<Lane> lanes(kWorkers);
  std::atomic<std::int64_t> drain_deadline_ns{
      std::numeric_limits<std::int64_t>::max()};
  std::vector<std::thread> collectors;
  for (auto& lane : lanes)
    collectors.emplace_back([&lane, &out, &since_t0, &drain_deadline_ns] {
      for (;;) {
        std::pair<std::size_t, std::future<std::string>> item;
        {
          std::unique_lock<std::mutex> lock(lane.mu);
          lane.cv.wait(lock, [&] { return lane.closed || !lane.queue.empty(); });
          if (lane.queue.empty()) return;
          item = std::move(lane.queue.front());
          lane.queue.pop_front();
        }
        // wait_for returns as soon as the answer lands; the slices only
        // bound how late the drain deadline is noticed. Unanswered by the
        // deadline: done_s stays < 0 (a failure).
        while (item.second.wait_for(std::chrono::milliseconds(100)) !=
               std::future_status::ready)
          if (Clock::now().time_since_epoch().count() > drain_deadline_ns.load())
            break;
        if (item.second.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
          continue;
        out[item.first].done_s = since_t0();
        out[item.first].response = item.second.get();
      }
    });

  const fleet::Ring ring(kWorkers, fleet::RouterConfig{}.vnodes);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Planned& p = schedule[i];
    Lane& lane = lanes[ring.route(fleet::routing_key(p.req.guess))];
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(p.at_s)));
    out[i].submitted_s = since_t0();
    auto fut = router.submit(p.req, p.line);
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.queue.emplace_back(i, std::move(fut));
    }
    lane.cv.notify_one();
  }
  drain_deadline_ns =
      (Clock::now() + std::chrono::milliseconds(int(kDrainMs)))
          .time_since_epoch()
          .count();
  for (auto& lane : lanes) {
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.closed = true;
    }
    lane.cv.notify_one();
  }
  for (auto& c : collectors) c.join();
  return out;
}

/// Output checks. Returns nullptr for a correct answer, else why it is not;
/// `valid` receives the number of passwords that pass.
const char* check(const Planned& p, const std::string& response,
                  std::size_t* valid, double* queue_ms, double* total_ms) {
  *valid = 0;
  const auto v = obs::parse_json(response);
  if (!v) return "unparseable";
  if (v->get_string("status").value_or("") != "ok") return "not_ok";
  const obs::JsonValue* pw = v->find("passwords");
  if (pw == nullptr || pw->type != obs::JsonValue::Type::kArray)
    return "no_passwords";
  *queue_ms = v->get_number("queue_ms").value_or(0);
  *total_ms = v->get_number("total_ms").value_or(0);
  const serve::Request& r = p.req.guess;
  for (const auto& item : pw->array) {
    const bool prefix_kept = r.kind != serve::RequestKind::kPrefix ||
                             item.string.rfind(r.prefix, 0) == 0;
    if (item.type == obs::JsonValue::Type::kString && prefix_kept &&
        conforms(item.string, r.pattern))
      ++*valid;
  }
  if (*valid != pw->array.size()) return "nonconforming";
  return *valid == r.count ? nullptr : "short_count";
}

/// What one pass of the schedule measured.
struct Pass {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> latency_ms;  ///< measured window, failures at kDrainMs
  std::vector<double> lag_ms;      ///< generator lateness, all requests
  std::vector<double> queue_ms, service_ms, overhead_ms;
  double guesses = 0;              ///< valid, measured window
  double window_s = 0;             ///< measured window start -> last answer
  double wall_s = 0;               ///< first send -> last answer
  double all_guesses = 0;          ///< valid, whole pass
  std::map<std::string, std::uint64_t> failures;  ///< by reason
};

Pass score(const std::vector<Planned>& schedule,
           const std::vector<Outcome>& outcomes, int corrupt) {
  Pass s;
  double last_done = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Planned& p = schedule[i];
    Outcome o = outcomes[i];
    if (int(i) < corrupt) o.response = "{\"status\":\"ok\",\"passwords\":[\" \"]}";
    std::size_t valid = 0;
    double q = 0, total = 0;
    const char* why = o.done_s < 0 ? "unanswered"
                                   : check(p, o.response, &valid, &q, &total);
    const bool ok = why == nullptr;
    ++s.attempted;
    if (!ok) {
      ++s.failed;
      ++s.failures[why];
    }
    s.lag_ms.push_back((o.submitted_s - p.at_s) * 1000.0);
    last_done = std::max(last_done, o.done_s);
    if (ok) {
      s.all_guesses += double(valid);
      s.queue_ms.push_back(q);
      s.service_ms.push_back(total - q);
      s.overhead_ms.push_back((o.done_s - o.submitted_s) * 1000.0 - total);
    }
    if (!p.measured) continue;
    s.latency_ms.push_back(ok ? (o.done_s - p.at_s) * 1000.0 : kDrainMs);
    if (ok) s.guesses += double(valid);
  }
  s.window_s = last_done - kWarmupS;
  s.wall_s = last_done;
  return s;
}

/// Fraction of requests whose routing key already went to the same home
/// worker earlier in the schedule (the prefix-affinity opportunity).
double cache_affine_frac(const std::vector<Planned>& schedule) {
  const fleet::Ring ring(kWorkers, fleet::RouterConfig{}.vnodes);
  std::vector<std::unordered_set<std::string>> seen(kWorkers);
  std::size_t affine = 0;
  for (const auto& p : schedule) {
    const std::string key = fleet::routing_key(p.req.guess);
    if (!seen[ring.route(key)].insert(key).second) ++affine;
  }
  return schedule.empty() ? 0.0 : double(affine) / double(schedule.size());
}

}  // namespace

RunResult run_fleet_mix(const Options& opt) {
  RunResult out;
  const double span = opt.trace ? kWarmupS + opt.seconds / 2
                                : kWarmupS + opt.seconds;
  std::unique_ptr<Corpus> corpus;
  std::vector<Planned> schedule;
  Fleet fleet;
  std::vector<double> setup_s;
  while (another_setup(setup_s, opt.trace)) {
    if (fleet.router) fleet.router->stop();
    fleet = Fleet{};
    corpus.reset();
    const auto t0 = Clock::now();
    corpus = std::make_unique<Corpus>(make_corpus());
    schedule = plan(*corpus, opt.seed, span);
    fleet = start_fleet(opt, "");
    setup_s.push_back(seconds_since(t0));
  }

  const Pass plain = score(schedule, drive(*fleet.router, schedule), opt.corrupt);
  if (!opt.trace) {
    double rss = peak_rss_mb(getpid());
    for (const pid_t pid : fleet.worker_pids()) rss += peak_rss_mb(pid);
    fleet.router->stop();
    out.attempted = plain.attempted;
    out.failed = plain.failed;
    out.metrics["guesses_per_sec"] = plain.guesses / plain.window_s;
    out.metrics["p50_ms"] = percentile(plain.latency_ms, 0.50);
    out.metrics["p95_ms"] = percentile(plain.latency_ms, 0.95);
    out.metrics["ok_frac"] =
        double(plain.attempted - plain.failed) / double(plain.attempted);
    out.metrics["setup_s"] = percentile(setup_s, 0.5);
    out.metrics["peak_rss_mb"] = rss;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "requests %zu measured of %zu sent at %.0f/s (p95 has %zu "
                  "samples beyond it), set-ups %zu",
                  plain.latency_ms.size(), schedule.size(), kRatePerSec,
                  plain.latency_ms.size() / 20, setup_s.size());
    out.info.push_back(buf);
    std::snprintf(buf, sizeof buf, "p99_ms %.4f ms (not gated: %zu samples "
                  "beyond it)", percentile(plain.latency_ms, 0.99),
                  plain.latency_ms.size() / 100);
    out.info.push_back(buf);
    std::snprintf(buf, sizeof buf, "generator_lag_p99_ms %.4f",
                  percentile(plain.lag_ms, 0.99));
    out.info.push_back(buf);
    std::snprintf(buf, sizeof buf, "failed_frac %.6f frac",
                  double(plain.failed) / double(plain.attempted));
    out.info.push_back(buf);
    for (const auto& [why, n] : plain.failures)
      out.info.push_back("failed " + why + " " + std::to_string(n));
    return out;
  }

  // Traced run: the untraced pass above, then the same schedule on a fresh
  // fleet whose workers write their own traces.
  fleet.router->stop();
  const std::string trace_dir = opt.work_dir + "/worker_traces";
  fs::remove_all(trace_dir);
  fs::create_directories(trace_dir);
  fleet = start_fleet(opt, trace_dir);
  std::vector<std::unique_ptr<WorkerStats>> stats;
  for (std::size_t k = 0; k < kWorkers; ++k)
    stats.push_back(std::make_unique<WorkerStats>(fleet.router->worker_port(k)));
  const auto snap_all = [&] {
    std::vector<Snapshot> parts;
    for (auto& s : stats) parts.push_back(s->get());
    return parts;
  };

  const std::vector<Snapshot> w_before = snap_all();
  const Snapshot r_before = local_snapshot();
  std::atomic<bool> polling{true};
  double kv_peak_bytes = 0;
  std::thread poller([&] {
    try {
      while (polling.load()) {
        kv_peak_bytes =
            std::max(kv_peak_bytes, sum(snap_all())["kv_cache.bytes"]);
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: kv gauge polling stopped: %s\n",
                   e.what());
    }
  });
  const Pass traced = score(schedule, drive(*fleet.router, schedule), opt.corrupt);
  polling = false;
  poller.join();
  const std::vector<Snapshot> w_after = snap_all();
  const Snapshot r_after = local_snapshot();
  fleet.router->stop();  // SIGKILL: a worker's last buffered events are lost

  std::vector<std::string> trace_files;
  for (const auto& e : fs::directory_iterator(trace_dir))
    trace_files.push_back(e.path().string());
  std::sort(trace_files.begin(), trace_files.end());

  LayerInputs in;
  in.before = sum(w_before);
  in.after = sum(w_after);
  if (auto atlas = merged_atlas(trace_files)) in.atlas = std::move(*atlas);
  in.wall_s = traced.wall_s;
  in.lanes = int(kWorkers);
  in.guesses = traced.all_guesses;
  in.kv_resident_mb_peak = kv_peak_bytes / (1024.0 * 1024.0);
  in.model = gpt::Config::paper();
  add_model_layers(in, out);

  const auto set = [&](const char* name, double v) {
    out.metrics[name] = std::isfinite(v) ? v : 0.0;
  };
  const auto d = [&](const char* name) { return delta(in.before, in.after, name); };
  set("gpt.invalid_frac", d("serve.invalid") / d("serve.rows"));
  set("serve.queue_ms_p50", percentile(traced.queue_ms, 0.50));
  set("serve.queue_ms_p99", percentile(traced.queue_ms, 0.99));
  set("serve.service_ms_p50", percentile(traced.service_ms, 0.50));
  set("serve.rows_per_batch", d("serve.rows") / d("serve.batches"));
  set("serve.rejected", d("serve.rejected"));
  set("serve.timeouts", d("serve.timeouts"));
  set("serve.batch_ms_p50", atlas_entry(in.atlas, "serve/batch").p50_us / 1000.0);
  set("fleet.overhead_ms_p50", percentile(traced.overhead_ms, 0.50));
  set("fleet.overhead_ms_p99", percentile(traced.overhead_ms, 0.99));
  set("fleet.retries", delta(r_before, r_after, "fleet.retries"));
  set("fleet.shed", delta(r_before, r_after, "fleet.shed"));
  set("fleet.rejected", delta(r_before, r_after, "fleet.rejected"));
  double max_done = 0, total_done = 0;
  for (std::size_t k = 0; k < kWorkers; ++k) {
    const double done = delta(w_before[k], w_after[k], "serve.completed");
    max_done = std::max(max_done, done);
    total_done += done;
  }
  set("fleet.worker_skew", max_done / (total_done / double(kWorkers)));
  set("fleet.cache_affine_frac", cache_affine_frac(schedule));
  set("bench.generator_lag_p99_ms", percentile(plain.lag_ms, 0.99));
  const double p50_plain = percentile(plain.latency_ms, 0.50);
  set("bench.trace_overhead_frac",
      (percentile(traced.latency_ms, 0.50) - p50_plain) / p50_plain);
  out.attempted = plain.attempted + traced.attempted;
  out.failed = plain.failed + traced.failed;
  return out;
}

}  // namespace ppg::perfbench
