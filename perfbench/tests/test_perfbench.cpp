// Tests of the benchmark's own arithmetic and of its two parity claims:
// the churn loop matches scenario::run_trial, and tracing does not
// perturb the simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(0), 0);
  EXPECT_EQ(highest_supported_percentile(19), 0);
  EXPECT_EQ(highest_supported_percentile(20), 50);
  EXPECT_EQ(highest_supported_percentile(99), 50);
  EXPECT_EQ(highest_supported_percentile(100), 90);
  EXPECT_EQ(highest_supported_percentile(999), 90);
  EXPECT_EQ(highest_supported_percentile(1000), 99);
  EXPECT_EQ(highest_supported_percentile(9999), 99);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(Percentile, LinearInterpolation) {
  const std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0), 1);
  EXPECT_DOUBLE_EQ(quantile(v, 1), 4);
  EXPECT_DOUBLE_EQ(quantile({7}, 0.99), 7);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

Span make(const char* name, std::int64_t a, std::int64_t b, int parent) {
  Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

TEST(SelfTime, NestedChildren) {
  const std::vector<Span> spans = {
      make("run", 0, 100, -1),      // 0
      make("iter", 10, 30, 0),      // 1
      make("fanout", 12, 20, 1),    // 2: grandchild, not run's child
      make("iter", 50, 60, 0),      // 3
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 8);
  EXPECT_EQ(self[3], 10);
  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("iter").spans, 2u);
  EXPECT_EQ(totals.at("iter").self_ns, 22);
  EXPECT_EQ(totals.at("run").self_ns, 70);
}

TEST(SelfTime, OverlappingAndClippedChildrenCountOnce) {
  const std::vector<Span> spans = {
      make("p", 0, 100, -1),
      make("c", 20, 40, 0),
      make("c", 10, 30, 0),   // overlaps the first child
      make("c", 90, 120, 0),  // runs past the parent's end
  };
  EXPECT_EQ(self_times_ns(spans)[0], 100 - 30 - 10);
}

TEST(Tracer, ParentsCallsAndAllocations) {
  Tracer t(true);
  const int outer = t.begin("outer");
  const int inner = t.begin("inner");
  auto p = std::make_unique<std::vector<int>>(100);
  t.end(inner, nullptr, 7);
  t.end(outer, "renamed");
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(std::string(t.spans()[0].name), "renamed");
  EXPECT_EQ(t.spans()[1].calls, 7u);
  EXPECT_GE(t.spans()[1].allocs, 2u);  // the vector and its buffer
  EXPECT_GE(t.spans()[0].allocs, t.spans()[1].allocs);
  EXPECT_LE(t.spans()[1].start_ns, t.spans()[1].end_ns);

  Tracer off(false);
  EXPECT_EQ(off.begin("x"), Tracer::kNoSpan);
  off.end(Tracer::kNoSpan);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Ratio, ValueWithBase) {
  const Ratio r = ratio(3, 4);
  EXPECT_DOUBLE_EQ(r.value, 0.75);
  EXPECT_DOUBLE_EQ(r.base, 4);
  const Ratio z = ratio(5, 0);
  EXPECT_DOUBLE_EQ(z.value, 0);
  EXPECT_DOUBLE_EQ(z.base, 0);
}

TEST(MetricNames, Charset) {
  for (const char* ok : {"setup_s", "core.iteration.steady.p50_us",
                         "net.ns-per-event", "1st", "A"}) {
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  }
  for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "p99%",
                          "caf\xc3\xa9"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(ResultLine, RejectsNonFiniteAndDuplicates) {
  EXPECT_EQ(check_metrics({{"a", 1, "s"}, {"b", 0, "count"}}), "");
  EXPECT_NE(check_metrics({}), "");
  EXPECT_NE(check_metrics({{"a", std::nan(""), "s"}}), "");
  EXPECT_NE(check_metrics({{"a", std::numeric_limits<double>::infinity(), "s"}}),
            "");
  EXPECT_NE(check_metrics({{"a", 1, "s"}, {"a", 2, "s"}}), "");
  EXPECT_NE(check_metrics({{"bad name", 1, "s"}}), "");
}

TEST(ResultLine, Format) {
  EXPECT_EQ(result_line(true, 5, 0, {{"latency_ms", 1.2034, "ms"},
                                     {"setup_s", 0.1, "s"}}),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}}}");
  EXPECT_EQ(format_number(0.30000000000000004), "0.30000000000000004");
}

TEST(InBand, ControllerIsNotTransit) {
  // Switches 0-1 and 2-3 are joined only through controller 4.
  ren::flows::TopoView g;
  for (int n = 0; n < 6; ++n) g.add_node(n);
  g.add_sym_edge(0, 1);
  g.add_sym_edge(2, 3);
  g.add_sym_edge(1, 4);
  g.add_sym_edge(4, 2);
  g.add_sym_edge(5, 3);
  EXPECT_FALSE(in_band_connected(g, 4));
  g.add_sym_edge(1, 2);
  EXPECT_TRUE(in_band_connected(g, 4));
  // Cutting 1-2 splits the switches again; killing switch 3 strands
  // controller 5.
  EXPECT_FALSE(in_band_connected(g, 4, {{2, 1}}));
  EXPECT_FALSE(in_band_connected(g, 4, {}, 3));
  EXPECT_TRUE(in_band_connected(g, 4, {}, 5));
}

WorkloadSpec small_churn() {
  WorkloadSpec w;
  w.name = "small_churn";
  w.topology = "fat_tree:k=4";
  w.churn_rate = 4'000;
  w.churn_mean_duration = ren::msec(150);
  w.churn_start = ren::msec(600);
  w.churn_window = ren::msec(400);
  w.table_capacity = 120;
  return w;
}

TEST(ChurnLoop, AgreesWithScenarioRunTrial) {
  const WorkloadSpec w = small_churn();
  Tracer off(false);
  const TrialResult t = run_trial(w, 7, 0, off);
  ASSERT_TRUE(t.ok) << t.error;
  ASSERT_TRUE(t.checkpoints.front().converged);
  EXPECT_GT(t.churn_arrivals, 1000);
  EXPECT_GT(t.layers.evictions + t.layers.overflow_rejects, 0);
  EXPECT_EQ(churn_parity(w, 7, 0, t), "");
}

TEST(ChurnLoop, ParityHoldsWhenRecoveryCyclesFollow) {
  // The ebone_faults order: boot, churn window, then faults. The loop's last
  // tick fires during the recovery cycle and must find the loop alive.
  WorkloadSpec w = small_churn();
  w.fault_cycles = 1;
  w.steady = ren::msec(100);
  // 120 entries fit the boot's rule lists but not the recovery's.
  w.table_capacity = 200;
  Tracer off(false);
  const TrialResult t = run_trial(w, 7, 0, off);
  ASSERT_TRUE(t.ok) << t.error;
  ASSERT_EQ(t.checkpoints.size(), 5u);
  for (const Checkpoint& cp : t.checkpoints) {
    EXPECT_TRUE(cp.converged) << cp.label;
  }
  EXPECT_EQ(t.layers.rule_owner_evictions, 0);
  EXPECT_NE(t.fingerprint, t.churn_fingerprint);
  EXPECT_EQ(churn_parity(w, 7, 0, t), "");
}

TEST(Tracing, DoesNotPerturbTheSimulation) {
  WorkloadSpec w;
  ASSERT_TRUE(workload_by_name("ebone_faults", w));
  w.topology = "B4";
  w.fault_cycles = 1;
  Tracer off(false);
  Tracer on(true);
  const TrialResult a = run_trial(w, 3, 0, off);
  const TrialResult b = run_trial(w, 3, 0, on);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_EQ(a.checkpoints.size(), 5u);
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_TRUE(a.checkpoints[i].converged) << a.checkpoints[i].label;
    EXPECT_EQ(a.checkpoints[i].sim_s, b.checkpoints[i].sim_s);
    EXPECT_EQ(a.checkpoints[i].cmd_per_node_iter,
              b.checkpoints[i].cmd_per_node_iter);
  }
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  const auto totals = totals_by_name(on.spans());
  EXPECT_GT(totals.count("core.fanout"), 0u);
  EXPECT_GT(totals.count("phase.recovery"), 0u);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
