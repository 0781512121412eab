#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fhe/simd/simd.h"
#include "io/serialize.h"
#include "serve/session_registry.h"
#include "smartpaf/fhe_deploy.h"

namespace perfbench {

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

template <typename Fn>
double median_ms(int repeats, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t a = now_ns();
    fn();
    t.push_back(ms_between(a, now_ns()));
  }
  return percentile(t, 50.0);
}

}  // namespace

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

const std::vector<std::string> kOpNames = {
    "rotations",  "hoisted_rotations", "ct_mults",     "relins",
    "rescales",   "plain_mults",       "ntts_forward", "ntts_inverse"};

std::vector<double> op_delta(const sp::fhe::OpCounters& after,
                             const sp::fhe::OpCounters& before) {
  const sp::fhe::OpCounters d = after.delta_since(before);
  return {static_cast<double>(d.rotations.load()),
          static_cast<double>(d.hoisted_rotations.load()),
          static_cast<double>(d.ct_mults.load()),
          static_cast<double>(d.relins.load()),
          static_cast<double>(d.rescales.load()),
          static_cast<double>(d.plain_mults.load()),
          static_cast<double>(d.ntts_forward.load()),
          static_cast<double>(d.ntts_inverse.load())};
}

long Tracer::add(Span s) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<long>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double log2_qp(const sp::fhe::CkksContext& ctx) {
  double bits = std::log2(static_cast<double>(ctx.special().value()));
  for (int i = 0; i < ctx.q_count(); ++i)
    bits += std::log2(static_cast<double>(ctx.q(i).value()));
  return bits;
}

void security_header(const std::string& workload, const sp::fhe::CkksContext& ctx) {
  const double qp = log2_qp(ctx);
  const int bound = max_log_qp_128(ctx.n());
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  std::printf(
      "[perfbench] %s: N=%zu log2(QP)=%.1f bound(128-bit, ternary)=%d simd=%s "
      "threads=%d cpu=\"%s\" loadavg=%.2f %.2f %.2f\n",
      workload.c_str(), ctx.n(), qp, bound,
      sp::fhe::simd::tier_name(sp::fhe::simd::active_tier()),
      sp::ThreadPool::global().threads(), cpu_model().c_str(), load[0], load[1], load[2]);
  std::fflush(stdout);
  if (bound == 0 || qp > static_cast<double>(bound))
    throw std::runtime_error("refusing " + workload + ": log2(QP) " + std::to_string(qp) +
                             " exceeds the 128-bit bound " + std::to_string(bound) +
                             " for N=" + std::to_string(ctx.n()));
}

sp::fhe::CkksParams secure_12_level_params(std::uint64_t seed) {
  sp::fhe::CkksParams p = sp::fhe::CkksParams::for_depth(16384, 12, 30);
  p.q_bits.front() = 39;
  p.special_bits = 39;
  p.seed = seed;
  return p;
}

std::shared_ptr<sp::serve::Session> open_session(sp::serve::SessionRegistry& registry,
                                                 std::uint64_t client_id,
                                                 sp::smartpaf::FheRuntime& client) {
  namespace io = sp::io;
  auto ctx = std::make_unique<sp::fhe::CkksContext>(
      io::deserialize_params(io::serialize(client.ctx().params())));
  sp::fhe::PublicKey pk = io::deserialize_public_key(io::serialize(client.public_key()), *ctx);
  sp::fhe::KSwitchKey rk = io::deserialize_kswitch_key(io::serialize(client.relin_key()), *ctx);
  return registry.open(client_id, std::move(ctx), std::move(pk), std::move(rk),
                       sp::fhe::GaloisKeys{});
}

KeyUpload upload_galois_keys(sp::smartpaf::FheRuntime& client, sp::serve::Session& session,
                             const std::vector<int>& steps) {
  KeyUpload up;
  std::int64_t a = now_ns();
  const auto keys = client.rotation_keys(steps);
  up.mint_ms = ms_between(a, now_ns());
  a = now_ns();
  sp::fhe::GaloisKeys received;
  for (const auto& [elt, key] : keys->keys) {
    sp::fhe::GaloisKeys one;
    one.keys.emplace(elt, key);
    const std::vector<std::uint8_t> blob = sp::io::serialize(one);
    up.bytes += static_cast<double>(blob.size());
    for (auto& kv : sp::io::deserialize_galois_keys(blob, session.runtime().ctx()).keys)
      received.keys.insert_or_assign(kv.first, std::move(kv.second));
  }
  session.adopt_rotation_keys(std::move(received));
  up.wire_ms = ms_between(a, now_ns());
  return up;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double precision_bits(double worst_abs_err) {
  return worst_abs_err > 0.0 ? -std::log2(worst_abs_err) : 60.0;
}

OpCosts probe_costs(sp::smartpaf::FheRuntime& rt, int q_count) {
  constexpr int kRepeats = 5;
  const sp::fhe::CkksContext& ctx = rt.ctx();
  sp::fhe::Evaluator& ev = rt.evaluator();
  const auto gk = rt.rotation_keys({1});
  sp::Rng rng(99);
  std::vector<double> v(ctx.slot_count());
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  sp::fhe::Ciphertext a = rt.encrypt(v);
  ev.drop_to_level(a, q_count - 1);
  const sp::fhe::Plaintext pt = rt.encoder().encode(v, ctx.scale(), q_count);

  OpCosts c;
  c.rotate_ms = median_ms(kRepeats, [&] { (void)ev.rotate(a, 1, *gk); });
  const sp::fhe::HoistedDecomposition h = ev.hoist(a);
  c.hoisted_rotate_ms = median_ms(kRepeats, [&] { (void)ev.rotate_hoisted(h, 1, *gk); });
  sp::fhe::Ciphertext prod;
  c.mult_ms = median_ms(kRepeats, [&] { prod = ev.multiply(a, a); });
  // In-place ops run on a fresh copy each repetition; the copy is timed
  // separately and subtracted.
  const double copy_ms = median_ms(kRepeats, [&] { sp::fhe::Ciphertext t = prod; (void)t; });
  c.relin_ms = std::max(0.0, median_ms(kRepeats, [&] {
                               sp::fhe::Ciphertext t = prod;
                               ev.relinearize_inplace(t, rt.relin_key());
                             }) - copy_ms);
  const double copy_a_ms = median_ms(kRepeats, [&] { sp::fhe::Ciphertext t = a; (void)t; });
  c.plain_mult_ms = std::max(0.0, median_ms(kRepeats, [&] {
                                    sp::fhe::Ciphertext t = a;
                                    ev.multiply_plain_inplace(t, pt);
                                  }) - copy_a_ms);
  if (q_count >= 2) {
    c.rescale_ms = std::max(0.0, median_ms(kRepeats, [&] {
                                   sp::fhe::Ciphertext t = a;
                                   ev.rescale_inplace(t);
                                 }) - copy_a_ms);
  }
  std::vector<std::vector<sp::fhe::u64>> rows(static_cast<std::size_t>(q_count));
  for (int i = 0; i < q_count; ++i) {
    rows[static_cast<std::size_t>(i)].resize(ctx.n());
    for (auto& x : rows[static_cast<std::size_t>(i)]) x = rng.next_u64() % ctx.q(i).value();
  }
  c.ntt_fwd_us = 1e3 * median_ms(kRepeats, [&] {
    for (int i = 0; i < q_count; ++i) ctx.ntt(i).forward(rows[static_cast<std::size_t>(i)].data());
  });
  c.ntt_inv_us = 1e3 * median_ms(kRepeats, [&] {
    for (int i = 0; i < q_count; ++i) ctx.ntt(i).inverse(rows[static_cast<std::size_t>(i)].data());
  });
  return c;
}

void record_costs(Result& r, const OpCosts& top, const OpCosts& bottom) {
  const std::pair<const char*, const OpCosts*> levels[] = {{"_top", &top}, {"_bottom", &bottom}};
  for (const auto& [suffix, c] : levels) {
    const std::string s = suffix;
    r.layer["fhe.rotate_ms" + s] = c->rotate_ms;
    r.layer["fhe.hoisted_rotate_ms" + s] = c->hoisted_rotate_ms;
    r.layer["fhe.mult_relin_ms" + s] = c->mult_ms + c->relin_ms;
    r.layer["fhe.rescale_ms" + s] = c->rescale_ms;
    r.layer["fhe.plain_mult_ms" + s] = c->plain_mult_ms;
    r.layer["fhe.ntt_fwd_us" + s] = c->ntt_fwd_us;
    r.layer["fhe.ntt_inv_us" + s] = c->ntt_inv_us;
  }
}

double explained_ms(const std::vector<double>& ops, const OpCosts& top,
                    const OpCosts& bottom) {
  auto mid = [&](double OpCosts::*f) { return 0.5 * (top.*f + bottom.*f); };
  const double naive_rot = ops[0] - ops[1];
  return naive_rot * mid(&OpCosts::rotate_ms) + ops[1] * mid(&OpCosts::hoisted_rotate_ms) +
         ops[2] * mid(&OpCosts::mult_ms) + ops[3] * mid(&OpCosts::relin_ms) +
         ops[4] * mid(&OpCosts::rescale_ms) + ops[5] * mid(&OpCosts::plain_mult_ms);
}

double predicted_plan_ms(const sp::smartpaf::Plan& plan, const OpCosts& c) {
  sp::smartpaf::CostModel cm;
  cm.ct_mult_ms = c.mult_ms;
  cm.relin_ms = c.relin_ms;
  cm.rescale_ms = c.rescale_ms;
  cm.plain_mult_ms = c.plain_mult_ms;
  cm.rotate_ms = c.rotate_ms;
  cm.hoisted_rotate_ms = c.hoisted_rotate_ms;
  cm.hoist_ms = std::max(c.rotate_ms - c.hoisted_rotate_ms, 0.0);
  cm.measured = true;
  double ms = 0.0;
  for (const sp::smartpaf::StagePlan& st : plan.stages) {
    if (st.folded) continue;
    ms += cm.eval_cost(st.ops) +
          cm.fan_cost(static_cast<int>(st.rotation_steps.size()), st.hoist_fan) +
          static_cast<double>(st.giant_steps.size()) * cm.rotate_ms;
  }
  return ms;
}

void record_ops(Result& r, const std::string& prefix, const std::vector<double>& ops) {
  for (std::size_t i = 0; i < kOpNames.size(); ++i) r.layer[prefix + kOpNames[i]] = ops[i];
}

bool trace_report(const Options& opts, const Tracer& tracer, Result& r) {
  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = self_times_ns(spans);
  std::map<std::string, std::vector<double>> by_name;
  double wall_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const bool root = spans[i].parent < 0;
    if (root) wall_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    by_name[root ? "other" : spans[i].name].push_back(self[i]);
  }
  std::printf("[perfbench] traced attribution over %zu spans (self time per hop):\n",
              spans.size());
  std::printf("  %-24s %8s %12s %10s\n", "span", "count", "median_ms", "share");
  for (const auto& [name, v] : by_name) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    const double share = wall_ns > 0.0 ? sum / wall_ns : 0.0;
    std::printf("  %-24s %8zu %12.3f %9.1f%%\n", name.c_str(), v.size(),
                percentile(v, 50.0) / 1e6, 100.0 * share);
    if (name == "other") r.layer["trace.other_share"] = share;
  }
  const std::vector<double> resid = attribution_residuals_ns(spans);
  double worst = 0.0;
  for (const double x : resid) worst = std::max(worst, x);
  std::printf("[perfbench] attribution: %zu trees, worst |sum(self) - wall| = %.0f ns\n",
              resid.size(), worst);
  const double other = r.layer["trace.other_share"];
  const bool ok = other <= kOtherShareCeiling;
  std::printf("[perfbench] other share %.4f of wall time (ceiling %.2f): %s\n", other,
              kOtherShareCeiling, ok ? "ok" : "TOO MUCH WALL TIME OUTSIDE NAMED LAYERS");

  const std::string path = std::string(kTraceDir) + "/trace_" + opts.workload + "_" +
                           std::to_string(opts.seed) + ".jsonl";
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"ops\":{";
    for (std::size_t i = 0; i < s.ops.size() && i < kOpNames.size(); ++i)
      out << (i ? "," : "") << "\"" << kOpNames[i] << "\":" << s.ops[i];
    out << "}}\n";
  }
  if (out) std::printf("[perfbench] wrote %s\n", path.c_str());
  return ok;
}

void record_overhead(Result& r, const std::vector<double>& untraced_ms,
                     const std::vector<double>& traced_ms) {
  const double a = percentile(untraced_ms, 50.0);
  const double b = percentile(traced_ms, 50.0);
  r.layer["trace.overhead_frac"] = a > 0.0 ? b / a - 1.0 : 0.0;
  std::printf("[perfbench] tracing overhead: p50 %.3f ms untraced vs %.3f ms traced (%+.2f%%)\n",
              a, b, a > 0.0 ? 100.0 * (b / a - 1.0) : 0.0);
}

}  // namespace perfbench
