// Self-test of the benchmark's own arithmetic: span self time and the
// tail-percentile rule. Exits non-zero on the first failed check.
//
//   .bench_build/perfbench_selftest
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(int n) {  // 1, 2, ..., n
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_self_time_nested() {
  // root [0,100) -> a [10,40) -> a1 [20,30); root -> b [50,70)
  perfbench::Tracer tr(1);
  const auto root = tr.add(0, "bench.timed", 0, 100);
  const auto a = tr.add(0, "tshmem.run", 10, 40, root);
  tr.add(0, "tshmem.put", 20, 30, a);
  tr.add(0, "svc.run", 50, 70, root);
  const auto rep = perfbench::self_times(tr);
  check(rep.by_name.at("bench.timed").self_ns == 50, "root self = 100-30-20");
  check(rep.by_name.at("tshmem.run").self_ns == 20, "a self = 30-10");
  check(rep.by_name.at("tshmem.put").self_ns == 10, "leaf self = duration");
  check(rep.self_total_ns == 100, "self times of one track sum to the root");
  check(rep.self_by_layer.at("tshmem") == 30, "layer self = run + put");
  check(rep.explained_frac() == 0.5, "explained = non-bench self / total");
}

void test_self_time_cross_track_overlap() {
  // A job on track 0 whose PE bodies run concurrently on tracks 1 and 2:
  // the overlap is subtracted once, and a child running past its parent's
  // end is clipped.
  perfbench::Tracer tr(3);
  const auto run = tr.add(0, "tshmem.run", 0, 100);
  tr.add(1, "bench.pe_body", 10, 60, run);
  tr.add(2, "bench.pe_body", 40, 120, run);
  const auto rep = perfbench::self_times(tr);
  check(rep.by_name.at("tshmem.run").self_ns == 10,
        "run self = 100 - [10,100)");
  check(rep.by_name.at("bench.pe_body").count == 2, "two bodies");
  check(rep.by_name.at("bench.pe_body").self_ns == 50 + 80,
        "bodies are leaves");
}

void test_self_time_open_close() {
  // Implicit parents: a span opened while another is open on the same
  // track becomes its child.
  perfbench::Tracer tr(1);
  {
    perfbench::Scope outer(&tr, 0, "bench.timed");
    perfbench::Scope inner(&tr, 0, "tshmem.put");
    check(tr.track(0)[1].parent.index == 0, "inner's parent is outer");
  }
  const auto& spans = tr.track(0);
  check(spans.size() == 2, "two spans recorded");
  check(spans[0].end_ns >= spans[1].end_ns, "outer closes last");
  perfbench::Scope off(nullptr, 0, "ignored");  // null tracer: no-op
  check(tr.track(0).size() == 2, "null tracer records nothing");
}

void test_union_length() {
  using perfbench::union_length;
  check(union_length({{0, 10}, {5, 15}, {20, 30}}, 0, 100) == 25, "merge");
  check(union_length({{0, 10}, {10, 20}}, 0, 100) == 20, "touching");
  check(union_length({{-5, 5}, {95, 105}}, 0, 100) == 10, "clipped");
  check(union_length({}, 0, 100) == 0, "empty");
}

void test_tail_rule() {
  using perfbench::tail_of_sorted;
  check(tail_of_sorted(ramp(19)).pct == 0.0, "19 samples: no tail");
  check(tail_of_sorted(ramp(20)).pct == 50.0, "20 samples: p50 (10 beyond)");
  check(tail_of_sorted(ramp(20)).value == 10.0, "p50 of 1..20 is 10");
  check(tail_of_sorted(ramp(99)).pct == 50.0, "99 samples: p90 has 9 beyond");
  check(tail_of_sorted(ramp(100)).pct == 90.0, "100 samples: p90");
  check(tail_of_sorted(ramp(100)).value == 90.0, "p90 of 1..100 is 90");
  check(tail_of_sorted(ramp(1000)).pct == 99.0, "1000 samples: p99");
  check(tail_of_sorted(ramp(1000)).value == 990.0, "p99 of 1..1000");
  check(tail_of_sorted(ramp(10000)).pct == 99.9, "10000 samples: p99.9");
  const perfbench::Dist d = perfbench::dist_of({5, 1, 3, 2, 4});
  check(d.count == 5 && d.p50 == 3.0, "dist count and median");
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "even-sized median");
}

void test_digest() {
  perfbench::Digest a;
  perfbench::Digest b;
  a.add(1);
  a.add(2);
  b.add(2);
  b.add(1);
  check(a.value() != b.value(), "digest is order-sensitive");
  perfbench::Digest c;
  c.add(1);
  c.add(2);
  check(a.value() == c.value(), "digest repeats");
}

}  // namespace

int main() {
  test_self_time_nested();
  test_self_time_cross_track_overlap();
  test_self_time_open_close();
  test_union_length();
  test_tail_rule();
  test_digest();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
