#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cursor = p.start_ns;  // end of the union so far
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, p.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = p.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.spans;
    t.calls += spans[i].calls;
    t.allocs += spans[i].allocs;
    t.self_ns += self[i];
    t.durations_s.push_back(static_cast<double>(spans[i].duration_ns()) * 1e-9);
  }
  return out;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  if (!spans.empty()) t0 = spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"allocs\":%llu,\"calls\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.trial,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.allocs),
                 static_cast<unsigned long long>(s.calls));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
