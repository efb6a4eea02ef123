// In-memory span tracing and sample statistics for the repository benchmark.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions (the library itself is not instrumented). They
// stay in memory while the run measures and are written out once it ends.
#ifndef REPOBENCH_TRACE_H_
#define REPOBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace repobench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed interval. `parent` indexes the enclosing span in the same trace
/// (-1 for a root); spans of one batch share `batch`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t batch = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Append-only span recorder. Not thread-safe: the benchmark's client thread
/// is the only one that records.
class Tracer {
 public:
  /// Opens a span and returns its index, to be passed to End.
  int32_t Begin(const char* name, int32_t parent, uint32_t batch) {
    spans_.push_back(Span{name, NowNs(), 0, parent, batch});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span) { spans_[span].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover. Overlapping children are counted once, and a
/// child's time outside its parent's interval is not subtracted.
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : c) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

/// Per-name totals over a trace: span count, summed duration, summed self
/// time.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

inline std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].duration_ns();
    t.self_ns += self[i];
  }
  return totals;
}

/// 1-based nearest rank of the `p` percentile among `n` samples (n >= 1). The
/// epsilon keeps p * n / 100 from rounding up past an exact integer.
inline size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

/// Nearest-rank percentile (`p` in (0, 100]) of `values`; NaN when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

/// Number of samples strictly above the nearest-rank `p` percentile of `n`
/// samples.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

/// The highest tail percentile of a fixed ladder that still has at least ten
/// samples beyond it, or nullopt when even the median has fewer.
inline std::optional<double> TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n > 0 && SamplesBeyond(n, p) >= 10) return p;
  }
  return std::nullopt;
}

}  // namespace repobench

#endif  // REPOBENCH_TRACE_H_
