// The benchmark's own arithmetic: medians, the highest percentile a sample
// supports, ratios reported with their base, metric-name validation, and the
// result line every run ends with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest percentile of {50, 90, 99, 99.9} that leaves at least ten
/// samples beyond it: n * (1 - p/100) >= 10. Returns 0 when n < 20, i.e.
/// when not even the median has ten samples above it.
double highest_supported_percentile(std::size_t n);

/// A ratio reported together with its base (the denominator's count). The
/// value is 0 when the base is 0: the base says the layer did no work.
struct Ratio {
  double value = 0;
  double base = 0;
};
Ratio ratio(double num, double den);

/// Metric names are 1..64 characters of [A-Za-z0-9_.-] starting with a
/// letter or a digit.
bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Result-line validity: every name valid and unique, every value finite.
/// Returns an empty string when the set is valid, else the first problem.
std::string check_metrics(const std::vector<Metric>& metrics);

/// Shortest round-trip decimal rendering of a finite double.
std::string format_number(double v);

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
