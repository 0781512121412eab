#include "measure.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>

namespace perfbench {

int max_log_qp_128(std::size_t n) {
  switch (n) {
    case 1024: return 27;
    case 2048: return 54;
    case 4096: return 109;
    case 8192: return 218;
    case 16384: return 438;
    case 32768: return 881;
    default: return 0;
  }
}

double tail_percentile(std::size_t n) {
  if (n < 20) return 50.0;
  return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

std::vector<Arrival> arrival_schedule(std::uint64_t seed, std::size_t count,
                                      double seconds, double share_a) {
  // One engine, fixed draw order: all due times first, then the tenant
  // positions. std::mt19937_64 and the manual uniform below are fully
  // specified, so the schedule is identical across standard libraries.
  // Arrival i falls at a uniform offset inside the i-th of `count` equal
  // slots, and the tenant-1 arrivals fall one each, at a seeded index, into
  // equal strata of the arrival order. Both mixes are then even over any
  // window of a few arrivals: a seed that bunched arrivals or one tenant's
  // requests would change how groups form, and with it the latency, far more
  // than run-to-run noise does.
  std::mt19937_64 gen(seed);
  std::vector<Arrival> out(count);
  const double slot = count > 0 ? seconds / static_cast<double>(count) : 0.0;
  for (std::size_t i = 0; i < count; ++i)
    out[i].due_s = (static_cast<double>(i) + static_cast<double>(gen() >> 11) * 0x1.0p-53) * slot;
  const auto n_a = static_cast<std::size_t>(std::llround(share_a * static_cast<double>(count)));
  const std::size_t n_b = count - std::min(n_a, count);
  std::vector<int> tenants(count, 0);
  for (std::size_t k = 0; k < n_b; ++k) {
    const std::size_t lo = k * count / n_b, hi = (k + 1) * count / n_b;  // hi > lo: n_b <= count
    tenants[lo + static_cast<std::size_t>(gen() % (hi - lo))] = 1;
  }
  for (std::size_t i = 0; i < count; ++i) out[i].tenant = tenants[i];
  return out;
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      const std::int64_t a = std::max(s.start_ns, p.start_ns);
      const std::int64_t b = std::min(s.end_ns, p.end_ns);
      if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
    }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

std::vector<double> attribution_residuals_ns(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ns(spans);
  // Walk each span up to its root; parents precede children only by
  // convention, so resolve roots explicitly.
  std::vector<long> root(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    long r = static_cast<long>(i);
    while (spans[static_cast<std::size_t>(r)].parent >= 0)
      r = spans[static_cast<std::size_t>(r)].parent;
    root[i] = r;
  }
  std::vector<double> sum(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    sum[static_cast<std::size_t>(root[i])] += self[i];
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent < 0)
      out.push_back(std::abs(sum[i] - static_cast<double>(spans[i].end_ns - spans[i].start_ns)));
  return out;
}

}  // namespace perfbench
