#include "workloads.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>

#include "faults/injector.hpp"
#include "flows/churn.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "switchd/rule_table.hpp"
#include "topo/source.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ren;

namespace {

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// The runner's churn tick cadence and churn RNG stream id
/// (scenario/runner.cpp kChurnTick / kChurnStream); churn_parity() fails if
/// either drifts.
constexpr Time kChurnTick = msec(10);
constexpr std::uint64_t kChurnStream = 0x466c6f774368ULL;  // "FlowCh"
/// Links failed together in one recovery episode.
constexpr int kLinksPerFailure = 2;
/// Stream id of the benchmark's own fault-schedule RNG.
constexpr std::uint64_t kFaultStream = 0x62656e6368666cULL;  // "benchfl"

/// The harness churn loop: installs one microflow entry per hop through
/// RuleTable::install_flow on a 10 ms harness-lane tick and retires flows at
/// expiry — the table operations of the runner's TrialExecutor, in the same
/// order. Each tick plans its arrivals first, so the installs and the
/// removals are each one contiguous batch span.
class ChurnLoop {
 public:
  ChurnLoop(sim::Experiment& exp, const WorkloadSpec& w,
              std::uint64_t trial_seed, Tracer& tracer)
      : exp_(exp), tracer_(tracer) {
    flows::ChurnConfig cfg;
    cfg.rate = w.churn_rate;
    cfg.mean_duration = w.churn_mean_duration;
    for (auto* sw : exp_.switches()) {
      sw->rule_table().set_eviction_policy(
          switchd::EvictionPolicy::PriorityLru);
    }
    gen_ = std::make_unique<flows::ChurnGenerator>(
        exp_.topology().switch_graph, cfg,
        Rng::stream_seed(trial_seed, kChurnStream), exp_.sim().now());
    running_ = true;
    exp_.sim().schedule(kChurnTick, [this] { tick(); });
  }
  ChurnLoop(const ChurnLoop&) = delete;
  ChurnLoop& operator=(const ChurnLoop&) = delete;

  /// Stop arrivals and flush every active flow (the pending tick fires once
  /// and goes quiet, as in the runner).
  void stop() {
    running_ = false;
    Scope s(tracer_, "flows.churn");
    retire_until(kTimeNever);
  }

  [[nodiscard]] double arrivals() const {
    return static_cast<double>(gen_->arrivals());
  }

 private:
  void tick() {
    if (!running_) return;
    Scope s(tracer_, "flows.churn");
    const Time now = exp_.sim().now();
    arrivals_.clear();
    gen_->advance(now, arrivals_);
    pending_.clear();
    for (const flows::FlowArrival& a : arrivals_) {
      gen_->path_hops(a.src, a.dst, hops_);
      if (hops_.empty()) continue;  // currently unreachable in the fabric
      switchd::FlowRule r;
      r.id = a.id;
      r.src = a.src;
      r.dst = a.dst;
      r.prt = a.prt;
      for (NodeId v : hops_) {
        r.fwd = gen_->next_hop(v, a.dst);
        pending_.emplace_back(v, r);
      }
      active_.emplace(std::pair{a.at + a.duration, a.id}, hops_);
    }
    const int h = tracer_.begin("switchd.install");
    const auto& switches = exp_.switches();
    for (const auto& [v, r] : pending_) {
      switches[static_cast<std::size_t>(v)]->rule_table().install_flow(r);
    }
    tracer_.end(h, nullptr, pending_.size());
    retire_until(now);
    exp_.sim().schedule(kChurnTick, [this] { tick(); });
  }

  void retire_until(Time t) {
    const int h = tracer_.begin("switchd.remove");
    std::uint64_t calls = 0;
    const auto& switches = exp_.switches();
    while (!active_.empty() && active_.begin()->first.first <= t) {
      const std::uint64_t id = active_.begin()->first.second;
      for (NodeId v : active_.begin()->second) {
        // false = the entry was already evicted under pressure; fine.
        (void)switches[static_cast<std::size_t>(v)]->rule_table().remove_flow(
            id);
        ++calls;
      }
      active_.erase(active_.begin());
    }
    tracer_.end(h, nullptr, calls);
  }

  sim::Experiment& exp_;
  Tracer& tracer_;
  std::unique_ptr<flows::ChurnGenerator> gen_;
  bool running_ = false;
  std::vector<flows::FlowArrival> arrivals_;
  std::vector<NodeId> hops_;
  std::vector<std::pair<NodeId, switchd::FlowRule>> pending_;
  std::map<std::pair<Time, std::uint64_t>, std::vector<NodeId>> active_;
};

/// Arms the controllers' iteration and fan-out probes for one traced trial.
/// An iteration span is named after it ends: "recompile" when the body
/// changed current_flows(), "steady" otherwise.
class ControllerProbes {
 public:
  ControllerProbes(sim::Experiment& exp, Tracer& tracer)
      : exp_(exp), open_(exp.controller_count()) {
    if (!tracer.enabled()) return;
    for (std::size_t k = 0; k < exp_.controller_count(); ++k) {
      core::Controller& c = exp_.controller(k);
      Open& o = open_[k];
      c.set_iteration_probe([&tracer, &c, &o](bool begin) {
        if (begin) {
          o.flows = c.current_flows().get();
          o.span = tracer.begin("core.iteration");
        } else {
          tracer.end(o.span, c.current_flows().get() != o.flows
                                 ? "core.iteration.recompile"
                                 : "core.iteration.steady");
        }
      });
      c.set_fanout_probe([&tracer, &o](bool begin) {
        if (begin) {
          o.fanout = tracer.begin("core.fanout");
        } else {
          tracer.end(o.fanout);
        }
      });
    }
  }
  ~ControllerProbes() {
    for (std::size_t k = 0; k < exp_.controller_count(); ++k) {
      exp_.controller(k).set_iteration_probe(nullptr);
      exp_.controller(k).set_fanout_probe(nullptr);
    }
  }
  ControllerProbes(const ControllerProbes&) = delete;
  ControllerProbes& operator=(const ControllerProbes&) = delete;

 private:
  struct Open {
    const void* flows = nullptr;
    int span = Tracer::kNoSpan;
    int fanout = Tracer::kNoSpan;
  };
  sim::Experiment& exp_;
  std::vector<Open> open_;
};

Checkpoint converge(sim::Experiment& exp, Tracer& tracer, const char* phase,
                    std::string label, Time limit) {
  Scope p(tracer, phase);
  const std::int64_t t0 = now_ns();
  sim::Experiment::ConvergenceResult r;
  {
    Scope s(tracer, "sim.run");
    r = exp.run_until_legitimate(limit);
  }
  Checkpoint cp;
  cp.label = std::move(label);
  cp.wall_s = seconds_since(t0);
  cp.converged = r.converged;
  cp.sim_s = r.converged ? r.seconds : to_seconds(limit);
  const auto nodes = static_cast<double>(exp.topology().switch_graph.n() +
                                         static_cast<int>(exp.controller_count()));
  for (std::size_t k = 0; k < r.commands.size(); ++k) {
    if (r.iterations[k] == 0) continue;
    cp.cmd_per_node_iter =
        std::max(cp.cmd_per_node_iter, static_cast<double>(r.commands[k]) /
                                           static_cast<double>(r.iterations[k]) /
                                           nodes);
  }
  return cp;
}

void run_to(sim::Experiment& exp, Tracer& tracer, const char* phase, Time t) {
  if (exp.sim().now() >= t) return;
  Scope p(tracer, phase);
  Scope s(tracer, "sim.run");
  exp.sim().run_until(t);
}

/// Pick `count` switch-switch links of the current control topology whose
/// joint failure keeps the in-band assumption, uniformly via `rng`.
std::vector<std::pair<NodeId, NodeId>> pick_links(const flows::TopoView& g,
                                                  int n_switches, int count,
                                                  Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> links;
  for (const auto& [u, nbrs] : g.adj()) {
    for (NodeId v : nbrs) {
      if (u < v && u < n_switches && v < n_switches) links.emplace_back(u, v);
    }
  }
  for (int attempt = 0; attempt < 1000; ++attempt) {
    rng.shuffle(links);
    if (links.size() < static_cast<std::size_t>(count)) break;
    std::vector<std::pair<NodeId, NodeId>> pick(links.begin(),
                                                links.begin() + count);
    if (in_band_connected(g, n_switches, pick)) return pick;
  }
  throw std::runtime_error("no link set keeps the fabric connected in-band");
}

NodeId pick_controller(const flows::TopoView& g, int n_switches,
                       const std::vector<core::Controller*>& controllers,
                       Rng& rng) {
  std::vector<NodeId> live;
  for (auto* c : controllers) {
    if (c->alive()) live.push_back(c->id());
  }
  if (live.size() < 2) throw std::runtime_error("fewer than two live controllers");
  const NodeId victim = rng.pick(live);
  if (!in_band_connected(g, n_switches, {}, victim)) {
    throw std::runtime_error("controller kill would break in-band connectivity");
  }
  return victim;
}

LayerCounts read_layers(sim::Experiment& exp) {
  LayerCounts l;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  for (auto* c : exp.controllers()) {
    const auto& vs = c->view_cache().stats();
    l.view_refreshes += d(vs.refreshes);
    l.view_hits += d(vs.hits);
    l.view_rebuilds += d(vs.rebuilds);
    const auto& ps = c->batch_planner().stats();
    l.planned += d(ps.planned);
    l.plan_reused += d(ps.reused);
    l.plan_rebuilt += d(ps.rebuilt);
    l.retransmissions += d(c->endpoint().retransmissions());
  }
  const auto& ms = exp.monitor().stats();
  l.monitor_checks = d(ms.checks);
  l.monitor_short_circuits = d(ms.short_circuits);
  l.reference_compiles = d(ms.reference_compiles);
  l.walk_sweeps = d(ms.walk_sweeps);
  l.maxflow_runs = d(exp.monitor().oracle_stats().maxflow_runs);
  const auto& nc = exp.sim().counters();
  l.events = d(exp.sim().events_executed());
  l.packets_delivered = d(nc.packets_delivered);
  l.drops = d(nc.drops_link_down + nc.drops_queue + nc.drops_dead_node +
              nc.drops_ttl + nc.drops_no_rule + nc.drops_ambiguous_rule);
  l.control_bytes = d(nc.control_bytes_sent);
  for (auto* sw : exp.switches()) {
    l.retransmissions += d(sw->endpoint().retransmissions());
    const auto& fs = sw->rule_table().flow_stats();
    l.lookups += d(fs.lookups);
    l.installs += d(fs.installs);
    l.evictions += d(fs.flow_evictions);
    l.overflow_rejects += d(fs.overflow_rejects);
    l.rule_owner_evictions += d(sw->rule_table().evictions());
  }
  return l;
}

void run_faults(sim::Experiment& exp, const WorkloadSpec& w,
                std::uint64_t seed, Tracer& tracer, TrialResult& out) {
  Rng rng(Rng::stream_seed(seed, kFaultStream));
  faults::ControlPlane cp = exp.control_plane();
  const int n_switches = exp.topology().switch_graph.n();
  auto quiet = [&] {
    run_to(exp, tracer, "phase.steady", exp.sim().now() + w.steady);
  };
  auto episode = [&](const char* label) {
    out.checkpoints.push_back(
        converge(exp, tracer, "phase.recovery", label, w.limit));
    quiet();
  };
  quiet();
  for (int cycle = 0; cycle < w.fault_cycles; ++cycle) {
    const auto links = pick_links(faults::control_topology(cp), n_switches,
                                  kLinksPerFailure, rng);
    for (const auto& [a, b] : links) {
      if (!faults::fail_link(cp, a, b)) throw std::runtime_error("fail_link");
    }
    episode("fail_links");
    for (const auto& [a, b] : links) {
      if (!faults::restore_link(cp, a, b)) {
        throw std::runtime_error("restore_link");
      }
    }
    episode("restore_links");
    const NodeId victim = pick_controller(faults::control_topology(cp),
                                          n_switches, exp.controllers(), rng);
    faults::kill_node(cp, victim);
    episode("kill_controller");
    if (!faults::restart_node(cp, victim)) {
      throw std::runtime_error("restart_node");
    }
    episode("restart_controller");
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "wan1k_boot", "ebone_faults"};
  return names;
}

bool workload_by_name(const std::string& name, WorkloadSpec& out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "wan1k_boot") {
    w.topology = "random_wan:nodes=1024,m=2,seed=1";
    w.kappa = 1;  // the WAN is 2-edge-connected by construction
  } else if (name == "ebone_faults") {
    w.topology = "EBONE";
    w.fault_cycles = 1;
    w.steady = msec(250);
    w.limit = sec(30);
    // 3,000 entries clear the hottest switch's management rules (at most
    // ~2,350 over 60 boots) and still make the churn evict in every trial.
    w.churn_rate = 30'000;
    w.churn_mean_duration = msec(150);
    w.churn_start = msec(1000);
    w.churn_window = msec(500);
    w.table_capacity = 3'000;
  } else {
    return false;
  }
  out = std::move(w);
  return true;
}

sim::ExperimentConfig fast_profile(const WorkloadSpec& w, std::uint64_t seed) {
  sim::ExperimentConfig cfg;
  cfg.topology = w.topology;
  cfg.controllers = kControllers;
  cfg.kappa = w.kappa;
  cfg.seed = seed;
  cfg.task_delay = msec(50);
  cfg.detect_interval = msec(10);
  cfg.monitor_interval = msec(25);
  cfg.link_latency = usec(100);
  cfg.theta = 10;
  cfg.rule_retention = 3;
  if (w.table_capacity > 0) cfg.max_rules = w.table_capacity;
  cfg.sim_threads = 1;
  return cfg;
}

std::uint64_t experiment_seed(const WorkloadSpec& w, std::uint64_t run_seed,
                              int trial) {
  return scenario::trial_seed(run_seed, w.topology, kControllers, trial);
}

SetupTimes measure_setup(const WorkloadSpec& w, std::uint64_t seed) {
  SetupTimes t;
  const std::int64_t t0 = now_ns();
  (void)topo::resolve(w.topology);
  t.resolve_s = seconds_since(t0);
  const std::int64_t t1 = now_ns();
  sim::Experiment exp(fast_profile(w, seed));
  t.build_s = seconds_since(t1);
  return t;
}

TrialResult run_trial(const WorkloadSpec& w, std::uint64_t run_seed,
                      int trial, Tracer& tracer) {
  TrialResult out;
  out.seed = experiment_seed(w, run_seed, trial);
  tracer.set_trial(trial);
  try {
    std::unique_ptr<sim::Experiment> exp;
    {
      Scope s(tracer, "setup");
      {
        Scope r(tracer, "topo.resolve");
        (void)topo::resolve(w.topology);
      }
      Scope b(tracer, "sim.build");
      exp = std::make_unique<sim::Experiment>(fast_profile(w, out.seed));
    }
    const std::int64_t t0 = now_ns();
    ControllerProbes probes(*exp, tracer);
    out.checkpoints.push_back(
        converge(*exp, tracer, "phase.boot", "bootstrap", w.limit));
    // Outlives the window: its last scheduled tick fires later and does
    // nothing, as in the runner.
    std::unique_ptr<ChurnLoop> churn;
    if (w.churn_rate > 0) {
      run_to(*exp, tracer, "phase.steady", w.churn_start);
      Scope p(tracer, "phase.churn");
      const std::int64_t c0 = now_ns();
      churn = std::make_unique<ChurnLoop>(*exp, w, out.seed, tracer);
      {
        Scope s(tracer, "sim.run");
        exp->sim().run_until(w.churn_start + w.churn_window);
      }
      churn->stop();
      out.churn_wall_s = seconds_since(c0);
      out.churn_arrivals = churn->arrivals();
      out.churn_fingerprint = exp->sim().counters().fingerprint();
    }
    if (w.fault_cycles > 0) run_faults(*exp, w, out.seed, tracer, out);
    out.run_wall_s = seconds_since(t0);
    out.run_sim_s = to_seconds(exp->sim().now());
    out.fingerprint = exp->sim().counters().fingerprint();
    out.layers = read_layers(*exp);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

bool in_band_connected(const flows::TopoView& g, int n_switches,
                       const std::vector<std::pair<NodeId, NodeId>>& cut_links,
                       NodeId cut_node) {
  auto usable = [&](NodeId a, NodeId b) {
    if (a == cut_node || b == cut_node) return false;
    return std::none_of(cut_links.begin(), cut_links.end(), [&](const auto& l) {
      return (l.first == a && l.second == b) ||
             (l.first == b && l.second == a);
    });
  };
  std::vector<NodeId> switches;
  for (const auto& [n, nbrs] : g.adj()) {
    if (n < n_switches && n != cut_node) switches.push_back(n);
  }
  if (switches.empty()) return false;
  // Switch-only BFS: controllers never relay, so they are not transit.
  std::map<NodeId, bool> seen;
  std::deque<NodeId> q{switches.front()};
  seen[switches.front()] = true;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop_front();
    for (NodeId v : *g.neighbors(u)) {
      if (v < n_switches && g.has_node(v) && !seen[v] && usable(u, v)) {
        seen[v] = true;
        q.push_back(v);
      }
    }
  }
  for (NodeId s : switches) {
    if (!seen[s]) return false;
  }
  for (const auto& [n, nbrs] : g.adj()) {
    if (n < n_switches || n == cut_node) continue;
    const bool attached = std::any_of(nbrs.begin(), nbrs.end(), [&](NodeId v) {
      return v < n_switches && g.has_node(v) && usable(n, v);
    });
    if (!attached) return false;
  }
  return true;
}

std::string churn_parity(const WorkloadSpec& w, std::uint64_t run_seed,
                         int trial, const TrialResult& bench) {
  scenario::Scenario s;
  s.name = "perfbench_churn_parity";
  s.topologies = {w.topology};
  s.controllers = {kControllers};
  s.trials = 1;
  s.base_seed = run_seed;
  s.expect_converged(0, "bootstrap", w.limit);
  s.start_flow_churn(w.churn_start, w.churn_rate, w.churn_mean_duration);
  s.stop_flow_churn(w.churn_start + w.churn_window);
  scenario::AxisPoint axes = {
      {"kappa", static_cast<double>(w.kappa)},
      {"table_capacity", static_cast<double>(w.table_capacity)}};
  scenario::RunnerOptions opt;
  opt.threads = 1;
  opt.sim_threads = 1;
  const scenario::TrialOutcome r =
      scenario::run_trial(s, w.topology, kControllers, axes, trial, opt);
  if (!r.ok) return "run_trial failed: " + r.error;
  std::string diff;
  auto cmp = [&](const char* what, double mine, double theirs) {
    if (mine != theirs) {
      diff += std::string(what) + " " + std::to_string(mine) + " vs " +
              std::to_string(theirs) + "; ";
    }
  };
  cmp("arrivals", bench.churn_arrivals, r.tbl_arrivals);
  cmp("installs", bench.layers.installs, r.tbl_installs);
  cmp("evictions", bench.layers.evictions, r.tbl_evictions);
  cmp("overflow_rejects", bench.layers.overflow_rejects, r.tbl_overflows);
  if (bench.churn_fingerprint != r.counters_fp) {
    diff += "counters fingerprint; ";
  }
  return diff;
}

}  // namespace perfbench
