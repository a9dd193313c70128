// Outside-in span trace of one benchmark run.
//
// The benchmark times each layer by wrapping the library's public entry
// points (and the controller's iteration/fan-out probes) in spans. A span
// carries a name, a start, an end, its parent and the allocations counted
// by the operator-new probe while it was open. Spans stay in memory and are
// written out once, at the end of the run.
//
// A disabled tracer records nothing: begin() returns kNoSpan and end() of
// kNoSpan is a no-op, so the untraced run pays one branch per wrapped call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Allocations made through global operator new since process start
/// (alloc_probe.cpp replaces operator new in every perfbench binary).
std::uint64_t allocations();

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";       ///< a string literal: naming never allocates
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;             ///< index into Tracer::spans(), -1 = root
  std::uint64_t allocs = 0;    ///< inclusive of children
  std::uint64_t calls = 1;     ///< wrapped calls the span covers (batches)
  int trial = 0;               ///< trial index the span belongs to

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Per-name totals over a span set: call counts, self time, durations.
struct SpanTotals {
  std::uint64_t spans = 0;
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;      ///< inclusive allocations
  std::int64_t self_ns = 0;      ///< duration minus what children cover
  std::vector<double> durations_s;  ///< one per span (inclusive)
};

class Tracer {
 public:
  static constexpr int kNoSpan = -2;

  explicit Tracer(bool enabled = false) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_trial(int trial) { trial_ = trial; }

  /// Open a span under the innermost open one; returns its handle.
  int begin(const char* name) {
    if (!enabled_) return kNoSpan;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.trial = trial_;
    s.allocs = allocations();
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Close span `h` (must be the innermost open span). `rename` replaces its
  /// name when the layer is only known at the end (e.g. whether an iteration
  /// recompiled); `calls` records how many wrapped calls a batch span covers.
  void end(int h, const char* rename = nullptr, std::uint64_t calls = 1) {
    if (h == kNoSpan) return;
    Span& s = spans_[static_cast<std::size_t>(h)];
    s.end_ns = now_ns();
    s.allocs = allocations() - s.allocs;
    s.calls = calls;
    if (rename != nullptr) s.name = rename;
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  int trial_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begin on construction, end on scope exit.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), h_(t.begin(name)) {}
  ~Scope() { t_.end(h_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int h_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it. Children of one parent may arrive in
/// any order and may overlap; each instant is subtracted once.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Fold spans into per-name totals.
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

/// Write the spans as Chrome trace-event JSON ("X" events, microseconds
/// from the first span), one track per trial, with each span's index,
/// parent, allocation count and call count in its args.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace perfbench
