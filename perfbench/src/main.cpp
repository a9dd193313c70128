// perfbench: the wall-clock cost of a Renaissance trial, end to end and
// layer by layer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// One run measures one workload for about S seconds of wall time, one trial
// at a time on the serial kernel:
//   1. set-up: 31 cold topo::resolve + Experiment constructions, each in a
//      forked child so the resolver's memo starts empty every time;
//   2. trials with experiment seeds derived from --seed, until the next
//      trial would end past S (at least three trials; two traced).
// --trace 0 prints the end-to-end metrics (medians over the trials).
// --trace 1 runs every trial twice, untraced then traced: it reports the
// per-layer metrics from the traced twin (per-trial means of counts and
// self times), checks that both twins simulated exactly the same thing,
// checks the churn loop against scenario::run_trial, and writes the spans
// to --trace-out as Chrome trace-event JSON.
//
// The last stdout line is the result:
//   {"correct": B, "attempted": N, "failed": F, "metrics": {...}}
// where attempted counts checkpoints (plus errored trials) and failed those
// not legitimate within their limit (plus errored trials). Exit codes: 0 ok,
// 1 no samples or a non-finite metric (no result line), 2 usage error.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupReps = 31;
constexpr int kMinTrials = 3;        ///< untraced runs
constexpr int kMinTracedTrials = 2;  ///< traced runs (each trial runs twice)
/// Longest run: with one trial of overrun it stays inside a 180 s budget.
constexpr std::uint64_t kMaxSeconds = 120;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               why.c_str());
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool parse_uint(const std::string& s, std::uint64_t max, std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (max - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key != "--workload" && key != "--seed" && key != "--seconds" &&
        key != "--trace" && key != "--trace-out") {
      usage("unknown argument '" + key + "'");
    }
    if (i + 1 >= argc) usage(key + " needs a value");
    if (!kv.emplace(key, argv[++i]).second) usage(key + " given twice");
  }
  for (const char* req : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (kv.count(req) == 0) usage(std::string("missing ") + req);
  }
  a.workload = kv["--workload"];
  std::uint64_t v = 0;
  if (!parse_uint(kv["--seed"], ~0ULL, a.seed)) usage("--seed: not a number");
  if (!parse_uint(kv["--seconds"], kMaxSeconds, v) || v < 1) {
    usage("--seconds: need a whole number in 1.." + std::to_string(kMaxSeconds));
  }
  a.seconds = static_cast<int>(v);
  const std::string& t = kv["--trace"];
  if (t != "0" && t != "1") usage("--trace: need 0 or 1");
  a.trace = t == "1" ? 1 : 0;
  if (kv.count("--trace-out") != 0) {
    if (a.trace == 0) usage("--trace-out needs --trace 1");
    a.trace_out = kv["--trace-out"];
  }
  return a;
}

/// One cold set-up in a forked child: the resolver memo is empty there.
SetupTimes forked_setup(const WorkloadSpec& w, std::uint64_t seed) {
  int fd[2];
  if (pipe(fd) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fd[0]);
    SetupTimes t{-1, -1};
    try {
      t = measure_setup(w, seed);
    } catch (...) {
    }
    const bool wrote = write(fd[1], &t, sizeof t) == sizeof t;
    _exit(wrote && t.resolve_s >= 0 ? 0 : 1);
  }
  close(fd[1]);
  SetupTimes t{-1, -1};
  const auto got = read(fd[0], &t, sizeof t);
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof t) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child failed");
  }
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Human-readable line for one sampled quantity: n, median, and the highest
/// percentile with at least ten samples beyond it.
void describe(const char* name, const std::vector<double>& v,
              const char* unit) {
  if (v.empty()) {
    std::printf("  %-34s n=0\n", name);
    return;
  }
  const double p = highest_supported_percentile(v.size());
  std::printf("  %-34s n=%-5zu median=%-12.6g", name, v.size(), median(v));
  if (p > 50) {
    std::printf(" p%g=%.6g", p, quantile(v, p / 100.0));
  } else if (p == 0) {
    std::printf(" (n<20: no percentile with ten samples beyond it)");
  }
  std::printf(" %s\n", unit);
}

/// Exactly the same simulation: deterministic outcomes and counters.
std::string identity_diff(const TrialResult& a, const TrialResult& b) {
  if (a.checkpoints.size() != b.checkpoints.size()) return "checkpoint count";
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const Checkpoint& x = a.checkpoints[i];
    const Checkpoint& y = b.checkpoints[i];
    if (x.converged != y.converged || x.sim_s != y.sim_s ||
        x.cmd_per_node_iter != y.cmd_per_node_iter) {
      return "checkpoint " + x.label;
    }
  }
  if (a.fingerprint != b.fingerprint) return "counters fingerprint";
  if (a.churn_arrivals != b.churn_arrivals) return "churn arrivals";
  return "";
}

/// Workload-level sanity of one trial's outputs.
std::string check_trial(const WorkloadSpec& w, const TrialResult& t) {
  const std::size_t want = 1 + 4 * static_cast<std::size_t>(w.fault_cycles);
  if (t.checkpoints.size() != want) return "missing checkpoints";
  if (!(t.run_sim_s > 0) || !(t.run_wall_s > 0)) return "no simulated time";
  if (w.churn_rate > 0) {
    if (!(t.churn_arrivals > 0) || !(t.layers.installs > 0)) {
      return "churn produced no installs";
    }
    if (!(t.layers.evictions + t.layers.overflow_rejects > 0)) {
      return "table capacity never bit";
    }
    if (t.layers.rule_owner_evictions > 0) {
      return "table capacity displaced management rules";
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  WorkloadSpec w;
  if (!workload_by_name(args.workload, w)) {
    usage("unknown workload '" + args.workload + "'");
  }
  std::printf("perfbench workload=%s topology=%s seed=%llu seconds=%d "
              "trace=%d\n",
              w.name.c_str(), w.topology.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);

  std::vector<double> setup_s, resolve_s, build_s;
  try {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const SetupTimes t =
          forked_setup(w, experiment_seed(w, args.seed, 1000 + rep));
      resolve_s.push_back(t.resolve_s);
      build_s.push_back(t.build_s);
      setup_s.push_back(t.resolve_s + t.build_s);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }

  Tracer off(false);
  Tracer on(args.trace == 1);
  std::vector<TrialResult> plain, traced;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0, failed = 0;
  const std::int64_t start = now_ns();
  std::vector<double> step_s;
  for (int i = 0;; ++i) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    const double est = step_s.empty() ? 0 : median(step_s);
    if (i >= (args.trace == 1 ? kMinTracedTrials : kMinTrials) &&
        elapsed + est > args.seconds) {
      break;
    }
    const std::int64_t s0 = now_ns();
    TrialResult t = run_trial(w, args.seed, i, off);
    if (args.trace == 1 && t.ok) {
      TrialResult tt = run_trial(w, args.seed, i, on);
      if (!tt.ok) {
        problems.push_back("traced trial " + std::to_string(i) + ": " +
                           tt.error);
      } else if (const std::string d = identity_diff(t, tt); !d.empty()) {
        problems.push_back("trial " + std::to_string(i) +
                           ": traced and untraced runs differ in " + d);
      }
      if (w.churn_rate > 0 && i == 0) {
        if (const std::string d = churn_parity(w, args.seed, i, t); !d.empty()) {
          problems.push_back("churn parity with run_trial: " + d);
        }
      }
      traced.push_back(std::move(tt));
    }
    step_s.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    if (!t.ok) {
      ++attempted;
      ++failed;
      std::fprintf(stderr, "perfbench: trial %d errored: %s\n", i,
                   t.error.c_str());
      continue;
    }
    if (const std::string d = check_trial(w, t); !d.empty()) {
      problems.push_back("trial " + std::to_string(i) + ": " + d);
    }
    for (const Checkpoint& cp : t.checkpoints) {
      ++attempted;
      if (!cp.converged) ++failed;
    }
    plain.push_back(std::move(t));
  }
  if (plain.empty() || (args.trace == 1 && traced.empty())) {
    std::fprintf(stderr, "perfbench: zero completed trials\n");
    return 1;
  }

  // --- End-to-end samples (untraced trials) -------------------------------
  std::vector<double> boot_wall, boot_sim, wall_per_sim, cmd, rec_wall,
      rec_sim, churn_rate;
  double plain_wall = 0;
  for (const TrialResult& t : plain) {
    boot_wall.push_back(t.checkpoints.front().wall_s);
    boot_sim.push_back(t.checkpoints.front().sim_s);
    wall_per_sim.push_back(t.run_wall_s / t.run_sim_s);
    cmd.push_back(t.checkpoints.front().cmd_per_node_iter);
    for (const Checkpoint& cp : t.checkpoints) {
      if (cp.label != "bootstrap") {
        rec_wall.push_back(cp.wall_s);
        rec_sim.push_back(cp.sim_s);
      }
    }
    if (t.churn_wall_s > 0) {
      churn_rate.push_back(t.churn_arrivals / t.churn_wall_s);
    }
    plain_wall += t.run_wall_s;
  }
  std::printf("trials=%zu attempted=%llu failed=%llu\n", plain.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  describe("setup_s", setup_s, "s");
  describe("boot_wall_s", boot_wall, "s");
  describe("boot_sim_s", boot_sim, "sim s");
  describe("wall_per_sim", wall_per_sim, "wall s / sim s");
  describe("cmd_per_node_iter", cmd, "commands / node / iteration");
  describe("recovery_wall_s", rec_wall, "s per episode");
  describe("recovery_sim_s", rec_sim, "sim s per episode");
  describe("churn_flows_per_s", churn_rate, "arrivals / wall s");

  std::vector<Metric> metrics;
  auto put = [&metrics](const char* name, double value, const char* unit) {
    metrics.push_back(Metric{name, value, unit});
  };
  if (args.trace == 0) {
    put("setup_s", median(setup_s), "s");
    put("boot_wall_s", median(boot_wall), "s");
    put("boot_sim_s", median(boot_sim), "sim_s");
    put("wall_per_sim", median(wall_per_sim), "ratio");
    put("cmd_per_node_iter", median(cmd), "ratio");
    put("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    // --- Per-layer metrics (traced twins), per-trial means ---------------
    LayerCounts sum;
    double traced_wall = 0;
    for (const TrialResult& t : traced) traced_wall += t.run_wall_s;
    const auto totals = totals_by_name(on.spans());
    const double n = static_cast<double>(traced.size());
    auto span = [&totals](const char* name) -> const SpanTotals& {
      static const SpanTotals kEmpty;
      const auto it = totals.find(name);
      return it == totals.end() ? kEmpty : it->second;
    };
    auto self_s = [&](const char* name) {
      return static_cast<double>(span(name).self_ns) * 1e-9 / n;
    };
    auto pct = [&](const char* name, double q, double unit) {
      const auto& d = span(name).durations_s;
      return d.empty() ? 0.0 : quantile(d, q) * unit;
    };
    auto per_call = [&](const char* name) {
      const SpanTotals& t = span(name);
      return ratio(static_cast<double>(t.allocs), static_cast<double>(t.spans))
          .value;
    };
    for (const TrialResult& t : traced) {
      const LayerCounts& l = t.layers;
      sum.view_refreshes += l.view_refreshes;
      sum.view_hits += l.view_hits;
      sum.view_rebuilds += l.view_rebuilds;
      sum.planned += l.planned;
      sum.plan_reused += l.plan_reused;
      sum.plan_rebuilt += l.plan_rebuilt;
      sum.monitor_checks += l.monitor_checks;
      sum.monitor_short_circuits += l.monitor_short_circuits;
      sum.reference_compiles += l.reference_compiles;
      sum.walk_sweeps += l.walk_sweeps;
      sum.maxflow_runs += l.maxflow_runs;
      sum.events += l.events;
      sum.packets_delivered += l.packets_delivered;
      sum.drops += l.drops;
      sum.control_bytes += l.control_bytes;
      sum.retransmissions += l.retransmissions;
      sum.lookups += l.lookups;
      sum.evictions += l.evictions;
      sum.overflow_rejects += l.overflow_rejects;
    }
    const double steady_n = static_cast<double>(span("core.iteration.steady").spans);
    const double tail_p = highest_supported_percentile(
        span("core.iteration.steady").durations_s.size());

    put("topo.resolve_s", median(resolve_s), "s");
    put("sim.build_s", median(build_s), "s");
    put("core.iteration.recompile.n",
        static_cast<double>(span("core.iteration.recompile").spans) / n, "count");
    put("core.iteration.recompile.self_s", self_s("core.iteration.recompile"), "s");
    put("core.iteration.recompile.p50_ms",
        pct("core.iteration.recompile", 0.5, 1e3), "ms");
    put("core.iteration.steady.n", steady_n / n, "count");
    put("core.iteration.steady.self_s", self_s("core.iteration.steady"), "s");
    put("core.iteration.steady.p50_us", pct("core.iteration.steady", 0.5, 1e6),
        "us");
    put("core.iteration.steady.tail_pct", tail_p, "%");
    put("core.iteration.steady.tail_us",
        tail_p > 0 ? pct("core.iteration.steady", tail_p / 100.0, 1e6) : 0.0,
        "us");
    put("core.iteration.steady.allocs_per_call",
        per_call("core.iteration.steady"), "count");
    put("core.fanout.n", static_cast<double>(span("core.fanout").spans) / n,
        "count");
    put("core.fanout.self_s", self_s("core.fanout"), "s");
    put("core.fanout.p50_us", pct("core.fanout", 0.5, 1e6), "us");
    put("core.fanout.allocs_per_call", per_call("core.fanout"), "count");
    const Ratio hits = ratio(sum.view_hits, sum.view_refreshes);
    put("core.view_cache.hit_ratio", hits.value, "ratio");
    put("core.view_cache.refreshes", hits.base / n, "count");
    put("core.view_cache.rebuilds", sum.view_rebuilds / n, "count");
    const Ratio reuse = ratio(sum.plan_reused, sum.planned);
    put("core.planner.reuse_ratio", reuse.value, "ratio");
    put("core.planner.planned", reuse.base / n, "count");
    put("core.planner.rebuilt", sum.plan_rebuilt / n, "count");
    const Ratio shorts = ratio(sum.monitor_short_circuits, sum.monitor_checks);
    put("core.monitor.checks", shorts.base / n, "count");
    put("core.monitor.short_circuit_ratio", shorts.value, "ratio");
    put("core.monitor.reference_compiles", sum.reference_compiles / n, "count");
    put("core.monitor.walk_sweeps", sum.walk_sweeps / n, "count");
    put("flows.oracle.maxflow_runs", sum.maxflow_runs / n, "count");
    put("sim.run.self_s", self_s("sim.run"), "s");
    put("net.events", sum.events / n, "count");
    put("net.ns_per_event",
        ratio(static_cast<double>(span("sim.run").self_ns), sum.events).value,
        "ns");
    put("net.packets_delivered", sum.packets_delivered / n, "count");
    put("net.drops", sum.drops / n, "count");
    put("net.control_bytes", sum.control_bytes / n, "bytes");
    put("transport.retransmissions", sum.retransmissions / n, "count");
    put("switchd.lookups", sum.lookups / n, "count");
    put("switchd.install.n",
        static_cast<double>(span("switchd.install").calls) / n, "count");
    put("switchd.install.self_s", self_s("switchd.install"), "s");
    put("switchd.remove.n",
        static_cast<double>(span("switchd.remove").calls) / n, "count");
    put("switchd.remove.self_s", self_s("switchd.remove"), "s");
    put("switchd.evictions", sum.evictions / n, "count");
    put("switchd.overflow_rejects", sum.overflow_rejects / n, "count");
    put("flows.churn.self_s", self_s("flows.churn"), "s");
    put("phase.recovery.n", static_cast<double>(rec_wall.size()) /
                                static_cast<double>(plain.size()),
        "count");
    put("phase.recovery.wall_s", rec_wall.empty() ? 0.0 : median(rec_wall), "s");
    put("phase.recovery.sim_s", rec_sim.empty() ? 0.0 : median(rec_sim), "sim_s");
    put("phase.churn.flows_per_s",
        churn_rate.empty() ? 0.0 : median(churn_rate), "1/s");
    put("trace.run_wall_s", traced_wall / n, "s");
    put("trace.overhead_ratio", ratio(traced_wall, plain_wall).value, "ratio");

    std::printf("where the traced run's time went (self time per trial, "
                "share of %.4g s after set-up):\n",
                traced_wall / n);
    std::vector<std::pair<double, std::string>> order;
    for (const auto& [name, t] : totals) {
      order.emplace_back(static_cast<double>(t.self_ns) * 1e-9 / n, name);
    }
    std::sort(order.rbegin(), order.rend());
    for (const auto& [s, name] : order) {
      std::printf("  %-28s %10.4f s %6.1f %%\n", name.c_str(), s,
                  100.0 * s / (traced_wall / n));
    }
    if (!args.trace_out.empty() &&
        !write_chrome_trace(on.spans(), args.trace_out)) {
      problems.push_back("cannot write " + args.trace_out);
    }
  }

  if (const std::string bad = check_metrics(metrics); !bad.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", bad.c_str());
    return 1;
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("%s\n", result_line(problems.empty(), attempted, failed, metrics)
                          .c_str());
  return 0;
}
