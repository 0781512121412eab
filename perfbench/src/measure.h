// Pure arithmetic of the benchmark: the HE-standard security table, the tail
// percentile rule, the seeded arrival schedule and span self-time
// attribution. Nothing here touches the library, so selftest.cpp can pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// HE-standard 128-bit classical bound on log2(QP) for a ternary secret
/// (homomorphicencryption.org security standard, Table 1):
/// N = 1024 .. 32768 -> 27 / 54 / 109 / 218 / 438 / 881 bits.
/// Returns 0 for a ring size the table does not list.
int max_log_qp_128(std::size_t n);

/// Highest percentile p (in percent) that leaves at least ten samples
/// strictly above its rank among `n` samples: p = 100 * (n - 10) / n,
/// floored at the median. Fewer than 20 samples support only the p50.
double tail_percentile(std::size_t n);

/// Linear-interpolated percentile (same rule as sp::percentile) of `v`.
double percentile(std::vector<double> v, double p);

/// Open-loop arrival schedule: `count` due times on [0, seconds), one at a
/// seeded uniform offset inside each of `count` equal slots (jittered
/// periodic arrivals: every seed offers exactly the same load), each tagged
/// with a tenant so that exactly `count * share_a` (rounded) arrivals belong
/// to tenant 0. The tenant-1 arrivals fall one each, at a seeded index, into
/// equal strata of the arrival order, so neither tenant's requests bunch.
struct Arrival {
  double due_s = 0.0;
  int tenant = 0;
};
std::vector<Arrival> arrival_schedule(std::uint64_t seed, std::size_t count,
                                      double seconds, double share_a);

/// One traced interval. `parent` indexes the enclosing span in the same
/// vector (-1 for a request/job root). Counter deltas ride along so ratios
/// can be formed where the work happened.
struct Span {
  std::string name;
  std::uint64_t id = 0;  ///< request or job id shared by the whole tree
  long parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<double> ops;  ///< counter deltas (kOpNames order), may be empty
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span). Children that overlap each
/// other are merged, so self time never goes negative.
std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Per root span: |sum of self times over its tree - root duration|, the
/// attribution residual (0 when children nest properly and never overlap).
/// Returned in root order.
std::vector<double> attribution_residuals_ns(const std::vector<Span>& spans);

}  // namespace perfbench
