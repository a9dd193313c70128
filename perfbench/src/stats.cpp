#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double highest_supported_percentile(std::size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    // Integer form of n * (1 - p/100) >= 10, exact for these p.
    const double beyond = static_cast<double>(n) * (1000.0 - p * 10.0);
    if (beyond >= 10.0 * 1000.0) best = p;
  }
  return best;
}

Ratio ratio(double num, double den) {
  return Ratio{den > 0 ? num / den : 0.0, den};
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

std::string check_metrics(const std::vector<Metric>& metrics) {
  if (metrics.empty()) return "no metrics";
  std::set<std::string> seen;
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name)) return "invalid metric name '" + m.name + "'";
    if (!seen.insert(m.name).second) return "duplicate metric " + m.name;
    if (!std::isfinite(m.value)) return "non-finite value for " + m.name;
  }
  return "";
}

std::string format_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         format_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
