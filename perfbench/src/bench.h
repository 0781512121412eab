// Shared plumbing of the end-to-end benchmark: options, the in-memory span
// tracer, the per-workload result record and the helpers every workload
// uses (security header, op-cost probe, peak RSS, trace report).
//
// Every number is taken from OUTSIDE the library: the benchmark times its own
// calls into the public API and diffs Evaluator::counters around them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fhe/context.h"
#include "fhe/evaluator.h"
#include "measure.h"
#include "smartpaf/pipeline_planner.h"

namespace sp::smartpaf {
class FheRuntime;
}
namespace sp::serve {
class Session;
class SessionRegistry;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the process's first call.
std::int64_t now_ns();
double ms_between(std::int64_t a_ns, std::int64_t b_ns);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Traced runs write their spans here, relative to the working directory.
constexpr const char* kTraceDir = ".bench_out";

/// Setups per run: setup_s is the median of this many complete, independent
/// set-ups (the last one serves the measured phase).
constexpr int kSetupRepeats = 3;

/// Evaluator counters the benchmark reports, in Span::ops order.
extern const std::vector<std::string> kOpNames;
std::vector<double> op_delta(const sp::fhe::OpCounters& after,
                             const sp::fhe::OpCounters& before);

/// Thread-safe, append-only span store. Off: add() is a no-op returning -1,
/// so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  long add(Span s);
  std::vector<Span> spans() const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// What one workload run produced. `e2e` and `layer` are keyed by the metric
/// names in BENCHMARK.json; layer metrics a workload never exercises stay 0.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
};

// ---------------------------------------------------------------- header --

/// log2(Q * P) of the context's actual primes.
double log2_qp(const sp::fhe::CkksContext& ctx);

/// Prints the security/machine header and throws std::runtime_error when
/// log2(QP) exceeds the 128-bit bound for the ring size.
void security_header(const std::string& workload, const sp::fhe::CkksContext& ctx);

/// N = 16384 with twelve 30-bit levels and 39-bit outer primes:
/// log2(QP) = 438, the 128-bit bound for this ring.
sp::fhe::CkksParams secure_12_level_params(std::uint64_t seed);

/// Hello x3 of the serving handshake: params, public key and relin key cross
/// as sp::io blobs into a keygen-less session opened in `registry`.
std::shared_ptr<sp::serve::Session> open_session(sp::serve::SessionRegistry& registry,
                                                 std::uint64_t client_id,
                                                 sp::smartpaf::FheRuntime& client);

/// Galois-key upload: the client mints keys for `steps`, then ships them one
/// sp::io blob per key (bounded transient memory, as a framed transport
/// would) and the session adopts them in one merge.
struct KeyUpload {
  double mint_ms = 0, wire_ms = 0, bytes = 0;
};
KeyUpload upload_galois_keys(sp::smartpaf::FheRuntime& client, sp::serve::Session& session,
                             const std::vector<int>& steps);

/// Peak resident set of the process so far (getrusage), MiB.
double peak_rss_mb();

/// -log2 of the worst absolute error; 60 when the error is exactly 0.
double precision_bits(double worst_abs_err);

// ---------------------------------------------------------- op-cost probe --

/// Measured cost of each evaluator primitive at one level (median of a few
/// repetitions on the runtime's own keys).
struct OpCosts {
  double rotate_ms = 0, hoisted_rotate_ms = 0, mult_ms = 0, relin_ms = 0,
         rescale_ms = 0, plain_mult_ms = 0, ntt_fwd_us = 0, ntt_inv_us = 0;
};

/// Probes `rt` (which must hold a secret key, to mint a step-1 key) with a
/// ciphertext truncated to `q_count` primes.
OpCosts probe_costs(sp::smartpaf::FheRuntime& rt, int q_count);

/// Writes fhe.*_top / fhe.*_bottom layer metrics.
void record_costs(Result& r, const OpCosts& top, const OpCosts& bottom);

/// Sum over counter deltas (kOpNames order) of count x cost, pricing each op
/// at the mean of its top- and bottom-level cost.
double explained_ms(const std::vector<double>& ops, const OpCosts& top,
                    const OpCosts& bottom);

/// The plan's per-stage op prediction priced at `c` (CostModel::eval_cost
/// and fan_cost over a table filled from the probe).
double predicted_plan_ms(const sp::smartpaf::Plan& plan, const OpCosts& c);

/// Writes `prefix` + kOpNames[i] layer metrics from a counter delta.
void record_ops(Result& r, const std::string& prefix, const std::vector<double>& ops);

// ------------------------------------------------------------ trace report --

/// Most of the wall time a traced run may leave outside every named layer.
constexpr double kOtherShareCeiling = 0.05;

/// Prints each span name's median self time and share of root wall time,
/// with the roots' own self time as the explicit `other` row, and each
/// tree's |sum of self times - wall time|; writes the spans as JSON lines
/// under kTraceDir and records trace.other_share. Returns false when
/// `other` exceeds kOtherShareCeiling: a hop the benchmark makes but does
/// not name.
bool trace_report(const Options& opts, const Tracer& tracer, Result& r);

/// Sets trace.overhead_frac from the p50 latencies of the untraced and the
/// traced measurement loop.
void record_overhead(Result& r, const std::vector<double>& untraced_ms,
                     const std::vector<double>& traced_ms);

// --------------------------------------------------------------- workloads --

Result run_serve(const Options& opts, bool paced);
Result run_train(const Options& opts);

}  // namespace perfbench
