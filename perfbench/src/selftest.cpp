// Tests of the benchmark's own arithmetic (measure.h): the tail-percentile
// rule, span self time with nested and overlapping children, the security
// table, and the seeded arrival schedule. Exit status 0 iff every check holds.
//
// Usage: perfbench_selftest
#include <cmath>
#include <cstdio>

#include "measure.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_tail_percentile() {
  using perfbench::tail_percentile;
  check(near(tail_percentile(1000), 99.0), "1000 samples support p99");
  check(near(tail_percentile(200), 95.0), "200 samples support p95");
  check(near(tail_percentile(20), 50.0), "20 samples support only p50");
  check(near(tail_percentile(5), 50.0), "5 samples fall back to p50");
  // At the chosen percentile exactly ten samples lie strictly above its rank.
  for (const std::size_t n : {25u, 100u, 240u, 1001u}) {
    const double p = tail_percentile(n);
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const std::size_t above = n - 1 - static_cast<std::size_t>(std::floor(rank + 1e-9));
    check(above == 10, "at least ten samples beyond the tail rank");
  }
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  check(near(perfbench::percentile(v, 50.0), 51.0), "median of 1..101");
  check(near(perfbench::percentile(v, 99.0), 100.0), "p99 of 1..101 interpolates");
}

void test_self_time() {
  using perfbench::Span;
  // root [0,100): a [10,40) with child a1 [15,25); b [50,70); c [60,80)
  // overlaps b. Root self = 100 - |[10,40) u [50,80)| = 40.
  std::vector<Span> s = {
      {"request", 1, -1, 0, 100, {}}, {"a", 1, 0, 10, 40, {}}, {"a1", 1, 1, 15, 25, {}},
      {"b", 1, 0, 50, 70, {}},        {"c", 1, 0, 60, 80, {}}};
  const auto self = perfbench::self_times_ns(s);
  check(near(self[0], 40.0), "root self time subtracts the union of its children");
  check(near(self[1], 20.0), "nested child subtracts its own child");
  check(near(self[2], 10.0), "leaf self time is its duration");
  const auto resid = perfbench::attribution_residuals_ns(s);
  check(resid.size() == 1 && near(resid[0], 10.0), "overlapping siblings leave a residual");

  std::vector<Span> ok = {{"request", 2, -1, 0, 100, {}}, {"x", 2, 0, 0, 30, {}},
                          {"y", 2, 0, 30, 90, {}},        {"y1", 2, 2, 40, 50, {}},
                          {"job", 3, -1, 200, 260, {}},   {"z", 3, 4, 210, 220, {}}};
  const auto r2 = perfbench::attribution_residuals_ns(ok);
  check(r2.size() == 2 && near(r2[0], 0.0) && near(r2[1], 0.0),
        "properly nested trees add up to their wall time");
  std::vector<Span> escape = {{"request", 4, -1, 0, 50, {}}, {"late", 4, 0, 40, 70, {}}};
  check(near(perfbench::attribution_residuals_ns(escape)[0], 20.0),
        "a child running past its parent is caught");
}

void test_security_table() {
  using perfbench::max_log_qp_128;
  check(max_log_qp_128(1024) == 27 && max_log_qp_128(2048) == 54 &&
            max_log_qp_128(4096) == 109 && max_log_qp_128(8192) == 218 &&
            max_log_qp_128(16384) == 438 && max_log_qp_128(32768) == 881,
        "HE-standard 128-bit table, N = 1024 .. 32768");
  check(max_log_qp_128(65536) == 0 && max_log_qp_128(3000) == 0,
        "unlisted ring sizes have no bound (refused)");
}

void test_arrivals() {
  const auto a = perfbench::arrival_schedule(42, 200, 10.0, 0.75);
  const auto b = perfbench::arrival_schedule(42, 200, 10.0, 0.75);
  const auto c = perfbench::arrival_schedule(43, 200, 10.0, 0.75);
  bool same = a.size() == b.size(), differs = false, sorted = true, in_range = true;
  std::size_t tenant0 = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].due_s == b[i].due_s && a[i].tenant == b[i].tenant;
    differs = differs || a[i].due_s != c[i].due_s;
    if (i > 0) sorted = sorted && a[i - 1].due_s <= a[i].due_s;
    in_range = in_range && a[i].due_s >= 0.0 && a[i].due_s < 10.0;
    tenant0 += a[i].tenant == 0 ? 1 : 0;
  }
  check(same, "same seed reproduces the schedule exactly");
  check(differs, "another seed gives another schedule");
  check(sorted && in_range, "due times sorted within [0, seconds)");
  check(tenant0 == 150, "tenant split is exactly 3:1");
  bool in_slot = true;
  for (std::size_t i = 0; i < a.size(); ++i)
    in_slot = in_slot && a[i].due_s >= 0.05 * static_cast<double>(i) &&
              a[i].due_s < 0.05 * static_cast<double>(i + 1) + 1e-12;
  check(in_slot, "arrival i falls inside the i-th of 200 equal slots over 10 s");
  bool one_per_block = true, tenants_differ = false;
  for (std::size_t k = 0; k < 50; ++k) {
    int ones = 0;
    for (std::size_t i = 4 * k; i < 4 * k + 4; ++i) {
      ones += a[i].tenant;
      tenants_differ = tenants_differ || a[i].tenant != c[i].tenant;
    }
    one_per_block = one_per_block && ones == 1;
  }
  check(one_per_block && tenants_differ,
        "one tenant-1 arrival per 4 in a row, at a seeded position");
  std::size_t odd0 = 0;
  for (const auto& x : perfbench::arrival_schedule(7, 135, 10.0, 0.75)) odd0 += x.tenant == 0;
  check(odd0 == 101, "135 arrivals: round(0.75 * 135) = 101 belong to tenant 0");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_self_time();
  test_security_table();
  test_arrivals();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
