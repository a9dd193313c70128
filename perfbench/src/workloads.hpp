// The benchmark's workloads, driven only through the library's public
// entry points (topo::resolve, sim::Experiment, the faults:: injectors,
// flows::ChurnGenerator, switchd::RuleTable, the controller probes), each
// wrapped in a span so the traced run can attribute time to layers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "flows/graph.hpp"
#include "sim/experiment.hpp"
#include "trace.hpp"
#include "util/types.hpp"

namespace perfbench {

/// Every workload deploys three controllers.
inline constexpr int kControllers = 3;

struct WorkloadSpec {
  std::string name;
  std::string topology;
  int kappa = 2;
  ren::Time limit = ren::sec(60);  ///< per-checkpoint simulated-time bound
  /// Recovery cycles (each: fail links, restore, kill a controller, restart
  /// it) with `steady` of quiet time after every episode.
  int fault_cycles = 0;
  ren::Time steady = 0;
  /// Churn window [churn_start, churn_start + churn_window), after the boot
  /// and before the recovery cycles.
  double churn_rate = 0;  ///< flow arrivals per simulated second
  ren::Time churn_mean_duration = 0;
  ren::Time churn_start = 0;
  ren::Time churn_window = 0;
  std::size_t table_capacity = 0;
};

/// The named workload, or false for an unknown name.
bool workload_by_name(const std::string& name, WorkloadSpec& out);
const std::vector<std::string>& workload_names();

/// The fast timer profile of scenario::run_trial (task delay 50 ms,
/// detection 10 ms, monitor 25 ms, 100 us links), serial kernel.
ren::sim::ExperimentConfig fast_profile(const WorkloadSpec& w,
                                        std::uint64_t seed);

/// Experiment seed of trial `trial` of a run seeded `run_seed`: the
/// campaign runner's derivation, so a trial is reproducible with run_trial.
std::uint64_t experiment_seed(const WorkloadSpec& w, std::uint64_t run_seed,
                              int trial);

struct Checkpoint {
  std::string label;
  bool converged = false;
  double sim_s = 0;   ///< simulated time to legitimacy (the limit if not)
  double wall_s = 0;  ///< wall time of the wait
  /// Fig. 9 cost over the wait: max over controllers of commands /
  /// iterations / node count (the runner's checkpoint formula).
  double cmd_per_node_iter = 0;
};

/// Work counters read from the layers' public Stats at trial end.
struct LayerCounts {
  double view_refreshes = 0, view_hits = 0, view_rebuilds = 0;
  double planned = 0, plan_reused = 0, plan_rebuilt = 0;
  double monitor_checks = 0, monitor_short_circuits = 0;
  double reference_compiles = 0, walk_sweeps = 0, maxflow_runs = 0;
  double events = 0, packets_delivered = 0, drops = 0, control_bytes = 0;
  double retransmissions = 0, lookups = 0;
  double installs = 0, evictions = 0, overflow_rejects = 0;
  /// Management rule lists displaced by the table limit (must stay 0: the
  /// limit is sized to press only on flow entries).
  double rule_owner_evictions = 0;
};

struct TrialResult {
  bool ok = false;
  std::string error;
  std::uint64_t seed = 0;
  std::vector<Checkpoint> checkpoints;  ///< [0] is the bootstrap
  double run_wall_s = 0;  ///< wall time after setup
  double run_sim_s = 0;   ///< simulated time at trial end
  double churn_wall_s = 0;
  double churn_arrivals = 0;
  std::uint64_t fingerprint = 0;  ///< Simulator::counters().fingerprint()
  /// The same fingerprint when the churn window closed (churn workloads).
  std::uint64_t churn_fingerprint = 0;
  LayerCounts layers;
};

/// Run one trial. With an enabled tracer every wrapped call is a span and
/// the controllers' iteration/fan-out probes are armed.
TrialResult run_trial(const WorkloadSpec& w, std::uint64_t run_seed,
                      int trial, Tracer& tracer);

/// Cold set-up cost, split: topo::resolve, then Experiment construction.
struct SetupTimes {
  double resolve_s = 0;
  double build_s = 0;
};
SetupTimes measure_setup(const WorkloadSpec& w, std::uint64_t seed);

/// The paper's in-band assumption on a control-plane graph (controllers
/// are ids >= n_switches): the live switches are connected through
/// switch-only interiors and every live controller has an edge to a live
/// switch. `cut_links` are treated as absent, `cut_node` (if not kNoNode)
/// as dead.
bool in_band_connected(
    const ren::flows::TopoView& g, int n_switches,
    const std::vector<std::pair<ren::NodeId, ren::NodeId>>& cut_links = {},
    ren::NodeId cut_node = ren::kNoNode);

/// Re-run the churn trial through scenario::run_trial and compare arrivals,
/// installs, evictions, overflow rejections and the Counters fingerprint.
/// Returns an empty string on agreement, else what differed.
std::string churn_parity(const WorkloadSpec& w, std::uint64_t run_seed,
                         int trial, const TrialResult& bench);

}  // namespace perfbench
