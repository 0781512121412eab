// train-logreg: closed loop of encrypted logistic-regression jobs (SGD with
// momentum, deg-3 sigmoid PAF) on a depth-12 chain at N = 16384. Each job
// is pack -> the planned steps -> serialize_training_state -> decrypt.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "data/synthetic.h"
#include "io/serialize.h"
#include "smartpaf/fhe_deploy.h"
#include "train/checkpoint.h"
#include "train/reference.h"

namespace perfbench {

namespace {

using namespace sp;

constexpr double kLimitMs = 20000.0;           ///< per-job latency limit
constexpr double kPrecisionFloorBits = 8.0;    ///< vs the train::reference mirror
constexpr double kMaxAccuracyGap = 0.02;       ///< vs the nn::optim oracle
constexpr std::size_t kMinJobs = 3;

train::TrainConfig train_config() {
  train::TrainConfig cfg;
  cfg.batch = 16;
  cfg.iterations = 3;  // 3 steps x 4 levels = the whole 12-level chain
  cfg.lr = 0.5;
  return cfg;
}

struct TrainSetup {
  std::unique_ptr<smartpaf::FheRuntime> rt;
  train::TrainPlan plan;
  double keygen_ms = 0, galois_ms = 0, galois_bytes = 0, plan_ms = 0;
};

struct Job {
  double latency_ms = 0, pack_ms = 0, checkpoint_ms = 0, decrypt_ms = 0;
  std::vector<double> step_ms;
  std::vector<double> step_ops;  ///< counter delta of the last step
  std::size_t checkpoint_bytes = 0;
  std::vector<double> weights;
};

Job one_job(TrainSetup& st, const std::vector<train::MiniBatch>& batches, Tracer& tracer,
            std::uint64_t id) {
  Job j;
  const int iters = st.plan.config.iterations;
  const std::int64_t t0 = now_ns();
  std::vector<train::EncryptedBatch> enc;
  for (int t = 0; t < iters; ++t)
    enc.push_back(train::EncryptedBatch::pack(batches[static_cast<std::size_t>(t) % batches.size()],
                                              st.plan, *st.rt));
  const std::int64_t t1 = now_ns();
  train::EncryptedLogReg model(st.plan, *st.rt);
  const std::int64_t t2 = now_ns();
  std::vector<std::int64_t> marks = {t2};
  std::vector<std::vector<double>> ops;
  for (int t = 0; t < iters; ++t) {
    const fhe::OpCounters c0 = st.rt->evaluator().counters;
    model.step(enc[static_cast<std::size_t>(t)]);
    ops.push_back(op_delta(st.rt->evaluator().counters, c0));
    marks.push_back(now_ns());
  }
  const std::vector<std::uint8_t> ckpt = train::serialize_training_state(model.state());
  const std::int64_t t3 = now_ns();
  j.weights = model.weights();
  const std::int64_t t4 = now_ns();

  j.latency_ms = ms_between(t0, t4);
  j.pack_ms = ms_between(t0, t1);
  for (std::size_t k = 1; k < marks.size(); ++k) j.step_ms.push_back(ms_between(marks[k - 1], marks[k]));
  j.step_ops = ops.back();
  j.checkpoint_ms = ms_between(marks.back(), t3);
  j.checkpoint_bytes = ckpt.size();
  j.decrypt_ms = ms_between(t3, t4);
  if (tracer.on()) {
    const long root = tracer.add({"job", id, -1, t0, t4, {}});
    tracer.add({"train.pack", id, root, t0, t1, {}});
    for (std::size_t k = 1; k < marks.size(); ++k)
      tracer.add({"train.step", id, root, marks[k - 1], marks[k], ops[k - 1]});
    tracer.add({"train.checkpoint", id, root, marks.back(), t3, {}});
    tracer.add({"client.decrypt", id, root, t3, t4, {}});
  }
  return j;
}

}  // namespace

Result run_train(const Options& opts) {
  Result r;
  const fhe::CkksParams params = secure_12_level_params(opts.seed);
  {
    const fhe::CkksContext ctx(params);
    security_header(opts.workload, ctx);
  }
  data::TwoGaussianSpec spec;
  spec.seed = opts.seed * 6364136223846793005ULL + 1442695040888963407ULL;
  spec.test_count = 1024;  // accuracy_pct then moves in 0.1-point steps, not 1.6
  const data::TwoGaussianData ds = data::make_two_gaussian(spec);
  const train::TrainConfig cfg = train_config();
  const std::vector<train::MiniBatch> batches =
      train::make_batches(data::design_matrix(ds.train), cfg.batch);

  std::vector<double> setup_s;
  std::unique_ptr<TrainSetup> st;
  Tracer off(false);
  for (int i = 0; i < kSetupRepeats; ++i) {
    st.reset();
    const std::int64_t a0 = now_ns();
    st = std::make_unique<TrainSetup>();
    std::int64_t a = now_ns();
    st->rt = std::make_unique<smartpaf::FheRuntime>(params, opts.seed);
    st->keygen_ms = ms_between(a, now_ns());
    a = now_ns();
    st->plan = train::TrainPlan::plan(cfg, st->rt->ctx());
    train::check_sigmoid_range(st->plan, batches);
    st->plan_ms = ms_between(a, now_ns());
    a = now_ns();
    const auto keys = st->rt->rotation_keys(st->plan.rotation_steps());
    st->galois_ms = ms_between(a, now_ns());
    st->galois_bytes = static_cast<double>(io::serialize(*keys).size());
    (void)one_job(*st, batches, off, 0);
    setup_s.push_back(ms_between(a0, now_ns()) / 1e3);
  }

  auto loop = [&](Tracer& tracer, std::vector<Job>& out) {
    const std::int64_t start = now_ns();
    while (out.size() < kMinJobs || ms_between(start, now_ns()) < opts.seconds * 1e3)
      out.push_back(one_job(*st, batches, tracer, out.size() + 1));
  };
  std::vector<Job> jobs;
  Tracer tracer(opts.trace);
  loop(off, jobs);
  if (opts.trace) {
    std::vector<Job> traced;
    loop(tracer, traced);
    std::vector<double> a, b;
    for (const Job& j : jobs) a.push_back(j.latency_ms);
    for (const Job& j : traced) b.push_back(j.latency_ms);
    record_overhead(r, a, b);
    jobs.insert(jobs.end(), traced.begin(), traced.end());
  }

  // Correctness, off the clock: the pure-double PAF mirror bounds every
  // weight; the nn::optim oracle bounds test accuracy.
  const train::ReferenceRun ref = train::reference_paf_run(st->plan, batches);
  const train::OracleRun oracle = train::optim_oracle_run(st->plan, batches);
  const data::DesignMatrix test = data::design_matrix(ds.test);
  const double acc_oracle = train::binary_accuracy(oracle.weights_per_iter.back(), test);
  double worst = 0.0, acc_sum = 0.0, busy_ms = 0.0;
  std::size_t failed = 0, within = 0;
  std::vector<double> lat, pack, step, ckpt, dec;
  for (const Job& j : jobs) {
    double err = 0.0;
    for (std::size_t k = 0; k < j.weights.size(); ++k)
      err = std::max(err, std::abs(j.weights[k] - ref.weights_per_iter.back()[k]));
    worst = std::max(worst, err);
    const double acc = train::binary_accuracy(j.weights, test);
    acc_sum += acc;
    const bool ok = precision_bits(err) >= kPrecisionFloorBits && acc >= acc_oracle - kMaxAccuracyGap;
    failed += ok ? 0 : 1;
    within += ok && j.latency_ms <= kLimitMs ? 1 : 0;
    busy_ms += j.latency_ms;
    lat.push_back(j.latency_ms);
    pack.push_back(j.pack_ms);
    step.insert(step.end(), j.step_ms.begin(), j.step_ms.end());
    ckpt.push_back(j.checkpoint_ms);
    dec.push_back(j.decrypt_ms);
  }
  const double pct = tail_percentile(lat.size());
  std::printf("[perfbench] %s: %zu jobs, %zu failed; latency p50 %.1f ms; oracle accuracy %.1f%%\n",
              opts.workload.c_str(), jobs.size(), failed, percentile(lat, 50.0), 100.0 * acc_oracle);

  r.attempted = jobs.size();
  r.failed = failed;
  r.correct = failed == 0;
  r.e2e["latency_p50_ms"] = percentile(lat, 50.0);
  r.e2e["latency_p99_ms"] = percentile(lat, pct);
  r.e2e["goodput_rps"] = static_cast<double>(within) / (busy_ms / 1e3);
  r.e2e["throughput_rps"] = static_cast<double>(jobs.size()) / (busy_ms / 1e3);
  r.e2e["setup_s"] = percentile(setup_s, 50.0);
  r.e2e["precision_bits"] = precision_bits(worst);
  r.e2e["accuracy_pct"] = 100.0 * acc_sum / static_cast<double>(jobs.size());

  r.layer["client.decrypt_ms"] = percentile(dec, 50.0);
  r.layer["keys.keygen_ms"] = st->keygen_ms;
  r.layer["keys.galois_ms"] = st->galois_ms;
  r.layer["keys.galois_bytes"] = st->galois_bytes;
  r.layer["planner.plan_ms"] = st->plan_ms;
  r.layer["train.pack_ms"] = percentile(pack, 50.0);
  r.layer["train.step_ms"] = percentile(step, 50.0);
  r.layer["train.checkpoint_ms"] = percentile(ckpt, 50.0);
  r.layer["train.checkpoint_bytes"] = static_cast<double>(jobs.back().checkpoint_bytes);
  record_ops(r, "train.", jobs.back().step_ops);

  if (opts.trace) {
    const int top = st->rt->ctx().q_count();
    const int bottom = std::max(2, top - st->plan.levels_used + 1);
    const OpCosts ct = probe_costs(*st->rt, top);
    const OpCosts cb = probe_costs(*st->rt, bottom);
    record_costs(r, ct, cb);
    r.layer["fhe.explained_frac"] = explained_ms(jobs.back().step_ops, ct, cb) / r.layer["train.step_ms"];
    std::printf("[perfbench] fhe.explained_frac %.3f (one step)\n", r.layer["fhe.explained_frac"]);
    if (!trace_report(opts, tracer, r)) r.correct = false;
  }
  r.e2e["peak_rss_mb"] = peak_rss_mb();
  return r;
}

}  // namespace perfbench
