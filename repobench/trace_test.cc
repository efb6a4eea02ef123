// Self-tests of the benchmark's statistics and span bookkeeping (trace.h).
// Run through `python3 repobench/run.py --self-test`; exits 1 on a failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

repobench::Span MakeSpan(int64_t start, int64_t end, int32_t parent) {
  repobench::Span s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestPercentile() {
  using repobench::Percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  Expect(Percentile(v, 50.0) == 50.0, "p50 of 1..100 is 50");
  Expect(Percentile(v, 99.0) == 99.0, "p99 of 1..100 is 99");
  Expect(Percentile(v, 100.0) == 100.0, "p100 is the maximum");
  Expect(Percentile({7.0}, 99.0) == 7.0, "one sample is every percentile");
  Expect(std::isnan(Percentile({}, 50.0)), "no samples give NaN");
}

void TestTailPercentile() {
  using repobench::SamplesBeyond;
  using repobench::TailPercentile;
  Expect(SamplesBeyond(1000, 99.0) == 10, "p99 of 1000 has 10 beyond");
  Expect(SamplesBeyond(999, 99.0) == 9, "p99 of 999 has 9 beyond");
  Expect(TailPercentile(10000) == 99.9, "10000 samples support p99.9");
  Expect(TailPercentile(9999) == 99.0, "9999 samples stop at p99");
  Expect(TailPercentile(1000) == 99.0, "1000 samples support p99");
  Expect(TailPercentile(999) == 95.0, "999 samples stop at p95");
  Expect(TailPercentile(200) == 95.0, "200 samples support p95");
  Expect(TailPercentile(20) == 50.0, "20 samples support only the median");
  Expect(!TailPercentile(19).has_value(), "19 samples support nothing");
  Expect(!TailPercentile(0).has_value(), "no samples support nothing");
}

void TestSelfTimes() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: cover
  // [10,50) once) and a child [90,120) that runs past the root (only
  // [90,100) counts). Grandchild [12,18) under the first child.
  std::vector<repobench::Span> spans = {
      MakeSpan(0, 100, -1), MakeSpan(10, 30, 0), MakeSpan(20, 50, 0),
      MakeSpan(90, 120, 0), MakeSpan(12, 18, 1), MakeSpan(200, 260, -1),
  };
  const std::vector<int64_t> self = repobench::SelfTimesNs(spans);
  Expect(self[0] == 100 - 40 - 10, "root self time subtracts the union");
  Expect(self[1] == 20 - 6, "child self time subtracts its grandchild");
  Expect(self[2] == 30, "leaf span self time is its duration");
  Expect(self[3] == 30, "span past its parent keeps its own duration");
  Expect(self[5] == 60, "childless root self time is its duration");

  const auto totals = repobench::TotalsByName(spans);
  const repobench::SpanTotals& s = totals.at("s");
  Expect(s.count == 6, "totals count every span");
  Expect(s.total_ns == 100 + 20 + 30 + 30 + 6 + 60, "totals sum durations");
  Expect(s.self_ns == 50 + 14 + 30 + 30 + 6 + 60, "totals sum self times");
}

void TestTracer() {
  repobench::Tracer tracer;
  const int32_t root = tracer.Begin("root", -1, 3);
  const int32_t child = tracer.Begin("child", root, 3);
  tracer.End(child);
  tracer.End(root);
  const auto& spans = tracer.spans();
  Expect(spans.size() == 2, "tracer keeps every span");
  Expect(spans[1].parent == root && spans[1].batch == 3,
         "tracer records parent and batch");
  Expect(spans[0].start_ns <= spans[1].start_ns &&
             spans[1].end_ns <= spans[0].end_ns,
         "child span nests inside its parent");
}

}  // namespace

int main() {
  TestPercentile();
  TestTailPercentile();
  TestSelfTimes();
  TestTracer();
  if (failures == 0) std::printf("trace_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
