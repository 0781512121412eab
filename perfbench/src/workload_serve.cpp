// serve-paced / serve-burst: a dense mlp_head with one SmartPAF ReLU served
// through SessionRegistry + AsyncExecutor, requests arriving as sp::io blobs.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "approx/presets.h"
#include "bench.h"
#include "common/rng.h"
#include "io/serialize.h"
#include "models/zoo.h"
#include "serve/async_executor.h"
#include "serve/session_registry.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/paf_layers.h"
#include "smartpaf/replace.h"

namespace perfbench {

namespace {

using namespace sp;

constexpr int kInputSize = 32;  ///< mlp_head in_features = slots per request
constexpr int kGroup = 64;      ///< requests packed per ciphertext
/// One pipeline run costs ~250 ms of fixed work plus ~23 ms per packed
/// request at these parameters (4-core VM). With a short deadline the single
/// worker is never idle at any useful paced rate, and latency swings with
/// machine speed; at 1 s, groups flush on the deadline and the worker has
/// slack at kPacedRps.
constexpr std::chrono::milliseconds kDeadline{1000};
constexpr std::size_t kPool = 16;  ///< distinct pre-encrypted requests per tenant
constexpr int kWarmRequests = 2;   ///< per tenant: exercises the packing path

// Fixed once, from the commit that introduced this benchmark (see README):
// the paced rate is ~36% of serve-burst throughput there (paced groups are
// small and per-tenant, so paced capacity is far below burst capacity), and
// the limits sit about twice above what that commit delivers, so a faster
// commit sees the same load and the same limit.
constexpr double kPacedRps = 10.0;
constexpr double kPacedLimitMs = 3000.0;
constexpr std::size_t kBurstRequests = 3 * kGroup;
constexpr double kBurstLimitMs = 20000.0;

/// Decrypted outputs must match FhePipeline::reference to this many bits.
constexpr double kPrecisionFloorBits = 10.0;

/// N = 16384 with ten 35-bit levels (matmul 1 + f1∘g2 ReLU 7 + matmul 1 +
/// response mask 1) and 44-bit outer primes: log2(QP) = 438, the 128-bit
/// bound for this ring.
fhe::CkksParams serve_params(std::uint64_t seed) {
  fhe::CkksParams p = fhe::CkksParams::for_depth(16384, 10, 35);
  p.q_bits.front() = 44;
  p.special_bits = 44;
  p.seed = seed;
  return p;
}

/// mlp_head (32 -> 16 -> 10) with its ReLU replaced by the paper's lowest-
/// degree PAF form f1∘g2. The static scale is the exact bound on |fc0| for
/// inputs in [-1, 1], so the PAF only ever sees its fitted range.
smartpaf::FhePipeline build_model() {
  models::MlpHeadConfig cfg;
  nn::Model model = models::mlp_head(cfg);
  for (const auto& site : smartpaf::find_nonpoly_sites(model))
    smartpaf::replace_site(model, site, approx::make_paf(approx::PafForm::F1_G2),
                           smartpaf::ScaleMode::Dynamic);
  auto pafs = smartpaf::find_paf_layers(model);
  for (smartpaf::PafLayerBase* p : pafs) p->set_static_scale(1.0f);
  const auto probe = smartpaf::FhePipeline::lower(model, kInputSize);
  const auto& fc0 = std::get<smartpaf::MatMulStage>(probe.stages().front().op);
  double bound = 0.0;
  for (int r = 0; r < fc0.rows; ++r) {
    double s = fc0.bias.empty() ? 0.0 : std::abs(fc0.bias[static_cast<std::size_t>(r)]);
    for (int c = 0; c < fc0.cols; ++c)
      s += std::abs(fc0.weights[static_cast<std::size_t>(r) * fc0.cols + c]);
    bound = std::max(bound, s);
  }
  for (smartpaf::PafLayerBase* p : pafs) p->set_static_scale(static_cast<float>(bound * 1.01));
  return smartpaf::FhePipeline::lower(model, kInputSize);
}

struct Tenant {
  std::uint64_t id = 0;
  std::uint64_t fingerprint = 0;  ///< params fingerprint every request blob carries
  std::unique_ptr<smartpaf::FheRuntime> client;
  std::shared_ptr<serve::Session> session;
  std::vector<std::vector<double>> inputs;  ///< full slot vectors
  std::vector<std::vector<std::uint8_t>> blobs;
};

/// Everything the executor's worker reports, keyed by executor ticket id
/// (the hook can fire before submit() returns the ticket).
struct Collector {
  struct Group {
    std::int64_t hook_ns = 0, end_ns = 0;
    std::size_t size = 0, seen = 0;
    std::vector<double> ops;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::unordered_map<std::uint64_t, std::int64_t> hook_ns;
  std::unordered_map<std::uint64_t, std::size_t> group_of;
  std::unordered_map<std::uint64_t, serve::Outcome> outcomes;
  std::unordered_map<std::uint64_t, std::int64_t> outcome_ns;
  std::vector<Group> groups;
  std::vector<const fhe::Evaluator*> evaluators;  ///< every tenant's server evaluator
  fhe::OpCounters before;

  fhe::OpCounters total() const {
    fhe::OpCounters sum;
    for (const fhe::Evaluator* ev : evaluators)
      fhe::OpCounters::zip_fields(sum, ev->counters,
                                  [](std::atomic<std::size_t>& d, const std::atomic<std::size_t>& s) {
                                    d += s.load();
                                  });
    return sum;
  }

  void on_hook(const std::vector<std::uint64_t>& ids) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu);
    Group g;
    g.hook_ns = t;
    g.size = ids.size();
    before = total();
    for (const std::uint64_t id : ids) {
      hook_ns[id] = t;
      group_of[id] = groups.size();
    }
    groups.push_back(std::move(g));
  }

  void on_outcome(serve::Outcome o) {
    const std::int64_t t = now_ns();
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = group_of.find(o.id);
      if (it != group_of.end()) {
        Group& g = groups[it->second];
        if (++g.seen == g.size) {
          g.end_ns = t;
          g.ops = op_delta(total(), before);
        }
      }
      outcome_ns[o.id] = t;
      outcomes.emplace(o.id, std::move(o));
    }
    cv.notify_all();
  }

  /// Waits until `n` outcomes arrived or `timeout_s` passed.
  bool wait_for(std::size_t n, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [&] { return outcomes.size() >= n; });
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu);
    hook_ns.clear();
    group_of.clear();
    outcomes.clear();
    outcome_ns.clear();
    groups.clear();
  }
};

/// One complete server + clients set-up: keygen per tenant, the Hello
/// handshake into the registry, planning, the Galois upload and warm-up.
struct ServeSetup {
  std::vector<Tenant> tenants;
  serve::SessionRegistry registry{4};
  Collector col;  // declared before exec: the worker calls into it until exec stops
  std::unique_ptr<serve::AsyncExecutor> exec;
  // Layer figures of this set-up.
  double keygen_ms = 0, galois_ms = 0, wire_ms = 0, galois_bytes = 0, plan_ms = 0;
  std::vector<double> encrypt_ms, serialize_ms;
  std::size_t request_bytes = 0;
};

std::unique_ptr<ServeSetup> make_setup(const Options& opts, int n_tenants,
                                       const smartpaf::FhePipeline& model,
                                       serve::ExecutorConfig cfg) {
  auto st = std::make_unique<ServeSetup>();
  st->exec = std::make_unique<serve::AsyncExecutor>(
      model, cfg, [c = &st->col](serve::Outcome o) { c->on_outcome(std::move(o)); });
  st->exec->set_eval_hook(
      [c = &st->col](const std::vector<std::uint64_t>& ids) { c->on_hook(ids); });
  for (int t = 0; t < n_tenants; ++t) {
    Tenant tn;
    tn.id = static_cast<std::uint64_t>(t + 1);
    const std::uint64_t key_seed = opts.seed * 1000003ULL + tn.id;
    const fhe::CkksParams params = serve_params(key_seed);
    std::int64_t a = now_ns();
    tn.client = std::make_unique<smartpaf::FheRuntime>(params, key_seed);
    st->keygen_ms += ms_between(a, now_ns());
    tn.fingerprint = io::params_fingerprint(params);

    tn.session = open_session(st->registry, tn.id, *tn.client);
    st->col.evaluators.push_back(&tn.session->runtime().evaluator());

    a = now_ns();
    const std::vector<int> steps = st->exec->required_rotation_steps(*tn.session);
    st->plan_ms += ms_between(a, now_ns());
    const KeyUpload up = upload_galois_keys(*tn.client, *tn.session, steps);
    st->galois_ms += up.mint_ms;
    st->wire_ms += up.wire_ms;
    st->galois_bytes += up.bytes;

    // Client-side pre-encryption of the request pool.
    sp::Rng rng(opts.seed * 7919ULL + tn.id);
    for (std::size_t i = 0; i < kPool; ++i) {
      std::vector<double> slots(tn.client->ctx().slot_count(), 0.0);
      for (int j = 0; j < kInputSize; ++j) slots[static_cast<std::size_t>(j)] = rng.uniform(-1.0, 1.0);
      a = now_ns();
      const fhe::Ciphertext ct = tn.client->encrypt(slots);
      const std::int64_t b = now_ns();
      tn.blobs.push_back(io::serialize(ct));
      st->encrypt_ms.push_back(ms_between(a, b));
      st->serialize_ms.push_back(ms_between(b, now_ns()));
      st->request_bytes = tn.blobs.back().size();
      tn.inputs.push_back(std::move(slots));
    }
    st->tenants.push_back(std::move(tn));
  }

  // Warm-up: a short group per tenant fills the plan cache, the response
  // mask and every lazily built table before the first timed request.
  const std::int64_t warm = now_ns();
  std::size_t sent = 0;
  for (Tenant& tn : st->tenants)
    for (int i = 0; i < kWarmRequests; ++i, ++sent)
      st->exec->submit(tn.session, io::deserialize_ciphertext(
                                       tn.blobs[static_cast<std::size_t>(i)],
                                       tn.session->runtime().ctx()));
  if (!st->col.wait_for(sent, 120.0)) throw std::runtime_error("serve warm-up timed out");
  st->col.reset();
  std::printf("[perfbench] setup: keygen %.0f ms, plan %.1f ms, galois mint %.0f ms, "
              "galois wire %.0f ms (%.0f MB), warm-up %.0f ms\n",
              st->keygen_ms, st->plan_ms, st->galois_ms, st->wire_ms, st->galois_bytes / 1e6,
              ms_between(warm, now_ns()));
  return st;
}

struct Request {
  int tenant = 0;
  std::size_t input = 0;
  /// due -> receive start (generator lag) -> deserialized -> submit() call.
  std::int64_t due_ns = 0, recv_ns = 0, deser_ns = 0, admit_start_ns = 0, admit_ns = 0;
  bool accepted = false;
  std::uint64_t ticket = 0;
};

/// Server side of one request's arrival: session lookup (params fingerprint
/// check) and blob deserialization.
fhe::Ciphertext receive(ServeSetup& st, Request& q, std::shared_ptr<serve::Session>& session) {
  Tenant& tn = st.tenants[static_cast<std::size_t>(q.tenant)];
  q.recv_ns = now_ns();
  session = st.registry.find(tn.id, tn.fingerprint);
  fhe::Ciphertext ct = io::deserialize_ciphertext(tn.blobs[q.input], session->runtime().ctx());
  q.deser_ns = now_ns();
  return ct;
}

void admit(ServeSetup& st, Request& q, std::shared_ptr<serve::Session> session,
           fhe::Ciphertext ct) {
  q.admit_start_ns = now_ns();
  const serve::Admission adm = st.exec->submit(std::move(session), std::move(ct));
  q.admit_ns = now_ns();
  q.accepted = adm.accepted;
  q.ticket = adm.id;
  if (!adm.accepted) std::printf("[perfbench] submit rejected: %s\n", adm.reason.c_str());
}

struct Phase {
  std::vector<Request> reqs;
  serve::ExecutorStats stats;  ///< executor counters over this phase only
  /// Paced: first due time -> last outcome. Burst: per round, first receive
  /// -> last outcome, summed over rounds.
  double wall_ms = 0.0;
};

/// Paced: the seeded schedule, one pass. Burst: rounds of kBurstRequests
/// submitted at once; another round starts only if it is expected to end
/// within `seconds` (at least one round), so runs do not overshoot.
Phase drive(ServeSetup& st, const Options& opts, bool paced, std::uint64_t schedule_seed) {
  Phase ph;
  st.col.reset();
  const serve::ExecutorStats before = st.exec->stats();
  if (paced) {
    const auto count = static_cast<std::size_t>(std::llround(kPacedRps * opts.seconds));
    const auto sched = arrival_schedule(schedule_seed, count, opts.seconds, 0.75);
    sp::Rng pick(schedule_seed + 1);
    const std::int64_t t0 = now_ns() + 5'000'000;
    for (const Arrival& a : sched) {
      Request q;
      q.tenant = a.tenant;
      q.input = static_cast<std::size_t>(pick.randint(0, kPool - 1));
      q.due_ns = t0 + static_cast<std::int64_t>(a.due_s * 1e9);
      ph.reqs.push_back(q);
    }
    for (Request& q : ph.reqs) {
      const std::int64_t wait = q.due_ns - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      std::shared_ptr<serve::Session> session;
      fhe::Ciphertext ct = receive(st, q, session);
      admit(st, q, std::move(session), std::move(ct));
    }
    std::size_t accepted = 0;
    for (const Request& q : ph.reqs) accepted += q.accepted ? 1 : 0;
    st.col.wait_for(accepted, 120.0);
    std::lock_guard<std::mutex> lock(st.col.mu);
    std::int64_t last = t0;
    for (const auto& kv : st.col.outcome_ns) last = std::max(last, kv.second);
    ph.wall_ms = ms_between(ph.reqs.front().due_ns, last);
  } else {
    sp::Rng pick(schedule_seed + 1);
    const std::int64_t start = now_ns();
    std::size_t accepted = 0;
    double round_ms = 0.0;
    do {
      const std::size_t from = ph.reqs.size();
      const std::int64_t due = now_ns();
      for (std::size_t i = 0; i < kBurstRequests; ++i) {
        Request q;
        q.input = static_cast<std::size_t>(pick.randint(0, kPool - 1));
        q.due_ns = due;
        ph.reqs.push_back(q);
      }
      // The whole burst arrives, then is submitted back to back, so every
      // group flushes full.
      std::vector<std::shared_ptr<serve::Session>> sessions(kBurstRequests);
      std::vector<fhe::Ciphertext> cts;
      for (std::size_t i = from; i < ph.reqs.size(); ++i)
        cts.push_back(receive(st, ph.reqs[i], sessions[i - from]));
      for (std::size_t i = from; i < ph.reqs.size(); ++i) {
        admit(st, ph.reqs[i], std::move(sessions[i - from]), std::move(cts[i - from]));
        accepted += ph.reqs[i].accepted ? 1 : 0;
      }
      st.col.wait_for(accepted, 120.0);
      std::lock_guard<std::mutex> lock(st.col.mu);
      std::int64_t last = due;
      for (std::size_t i = from; i < ph.reqs.size(); ++i) {
        const auto it = st.col.outcome_ns.find(ph.reqs[i].ticket);
        if (ph.reqs[i].accepted && it != st.col.outcome_ns.end()) last = std::max(last, it->second);
      }
      ph.wall_ms += ms_between(ph.reqs[from].recv_ns, last);
      round_ms = ms_between(due, last);
    } while (ms_between(start, now_ns()) + round_ms <= opts.seconds * 1e3);
  }
  const serve::ExecutorStats after = st.exec->stats();
  ph.stats.rejected = after.rejected - before.rejected;
  ph.stats.flush_full = after.flush_full - before.flush_full;
  ph.stats.flush_deadline = after.flush_deadline - before.flush_deadline;
  return ph;
}

}  // namespace

Result run_serve(const Options& opts, bool paced) {
  Result r;
  const smartpaf::FhePipeline model = build_model();
  const int n_tenants = paced ? 2 : 1;
  serve::ExecutorConfig cfg;
  cfg.input_size = kInputSize;
  cfg.group_capacity = kGroup;
  cfg.deadline = kDeadline;
  cfg.max_queue = 4 * kBurstRequests;
  {
    const fhe::CkksContext ctx(serve_params(opts.seed));
    security_header(opts.workload, ctx);
  }

  // --- set-up, repeated; the last one serves the measured phase ----------
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> st;
  for (int i = 0; i < kSetupRepeats; ++i) {
    st.reset();
    const std::int64_t a = now_ns();
    st = make_setup(opts, n_tenants, model, cfg);
    setup_s.push_back(ms_between(a, now_ns()) / 1e3);
  }

  // --- measured phase ------------------------------------------------------
  // Every pass takes the same timestamps, and spans are assembled from them
  // after the pass, so a traced run needs no second pass: its tracing
  // overhead is 0 by construction.
  Tracer tracer(opts.trace);
  const Phase ph = drive(*st, opts, paced, opts.seed * 31ULL + 5);
  if (opts.trace) {
    r.layer["trace.overhead_frac"] = 0.0;
    std::printf("[perfbench] tracing overhead: 0 (spans are built after the pass from "
                "timestamps every pass takes)\n");
    std::lock_guard<std::mutex> lock(st->col.mu);
    std::uint64_t id = 0;
    for (const Request& q : ph.reqs) {
      ++id;
      const auto it = st->col.outcome_ns.find(q.ticket);
      if (!q.accepted || it == st->col.outcome_ns.end()) continue;
      const std::int64_t out = it->second;
      const std::int64_t hook = std::clamp(st->col.hook_ns.at(q.ticket), q.admit_ns, out);
      const long root = tracer.add({"request", id, -1, q.due_ns, out, {}});
      tracer.add({"serve.generator_lag", id, root, q.due_ns, std::max(q.due_ns, q.recv_ns), {}});
      tracer.add({"io.deserialize", id, root, std::max(q.due_ns, q.recv_ns), q.deser_ns, {}});
      // Burst only: the wait for the rest of the burst to be received and
      // for the requests ahead of it to be submitted.
      if (!paced) tracer.add({"serve.burst_hold", id, root, q.deser_ns, q.admit_start_ns, {}});
      tracer.add({"serve.admit", id, root, q.admit_start_ns, q.admit_ns, {}});
      tracer.add({"serve.queue_wait", id, root, q.admit_ns, hook, {}});
      const auto& g = st->col.groups[st->col.group_of.at(q.ticket)];
      std::vector<double> per_req = g.ops;
      for (double& x : per_req) x /= static_cast<double>(g.size);
      tracer.add({"serve.group_eval", id, root, hook, out, per_req});
    }
  }

  // --- per-request figures ---------------------------------------------------
  const double limit_ms = paced ? kPacedLimitMs : kBurstLimitMs;
  std::vector<double> lat_ms, lag_ms, admit_ms, deser_ms, wait_ms, group_ms, batch;
  std::size_t within = 0, failed = 0;
  std::vector<std::pair<std::size_t, serve::Outcome>> done;  // request index -> outcome
  {
    std::lock_guard<std::mutex> lock(st->col.mu);
    for (std::size_t i = 0; i < ph.reqs.size(); ++i) {
      const Request& q = ph.reqs[i];
      lag_ms.push_back(std::max(0.0, ms_between(q.due_ns, q.recv_ns)));
      deser_ms.push_back(ms_between(q.recv_ns, q.deser_ns));
      admit_ms.push_back(ms_between(q.admit_start_ns, q.admit_ns));
      const auto it = st->col.outcomes.find(q.ticket);
      if (!q.accepted || it == st->col.outcomes.end() ||
          it->second.kind != serve::Outcome::Kind::Completed) {
        ++failed;
        continue;
      }
      const std::int64_t out = st->col.outcome_ns.at(q.ticket);
      const std::int64_t hook = std::clamp(st->col.hook_ns.at(q.ticket), q.admit_ns, out);
      const double l = ms_between(q.due_ns, out);
      lat_ms.push_back(l);
      wait_ms.push_back(ms_between(q.admit_ns, hook));
      batch.push_back(it->second.batch_size);
      done.emplace_back(i, std::move(it->second));
      if (l <= limit_ms) ++within;
    }
    for (const auto& g : st->col.groups)
      if (g.end_ns > 0) group_ms.push_back(ms_between(g.hook_ns, g.end_ns));
  }

  // --- correctness, off the clock: response blob -> client decrypt ---------
  const std::size_t out_width = model.output_width(kInputSize);
  double worst = 0.0;
  std::size_t agree = 0, below_floor = 0;
  std::vector<double> resp_ser_ms, resp_deser_ms, decrypt_ms;
  std::size_t response_bytes = 0;
  for (auto& [idx, o] : done) {
    const Request& q = ph.reqs[idx];
    Tenant& tn = st->tenants[static_cast<std::size_t>(q.tenant)];
    std::int64_t a = now_ns();
    const std::vector<std::uint8_t> blob = io::serialize(o.result);
    std::int64_t b = now_ns();
    const fhe::Ciphertext ct = io::deserialize_ciphertext(blob, tn.client->ctx());
    std::int64_t c = now_ns();
    const std::vector<double> got = tn.client->decrypt(ct);
    decrypt_ms.push_back(ms_between(c, now_ns()));
    resp_ser_ms.push_back(ms_between(a, b));
    resp_deser_ms.push_back(ms_between(b, c));
    response_bytes = blob.size();
    const std::vector<double> ref = model.reference(tn.inputs[q.input], kInputSize);
    double err = 0.0;
    for (std::size_t j = 0; j < got.size(); ++j)
      err = std::max(err, std::abs(got[j] - (j < out_width ? ref[j] : 0.0)));
    worst = std::max(worst, err);
    if (precision_bits(err) < kPrecisionFloorBits) ++below_floor;
    const auto am = [&](const std::vector<double>& v) {
      return std::max_element(v.begin(), v.begin() + static_cast<long>(out_width)) - v.begin();
    };
    agree += am(got) == am(ref) ? 1 : 0;
  }
  failed += below_floor;

  const serve::ExecutorStats& xs = ph.stats;
  const double pct = tail_percentile(lat_ms.size());
  std::printf("[perfbench] %s: %zu requests, %zu completed, %zu failed; latency p50 %.1f ms, "
              "p%.1f %.1f ms (%zu samples); limit %.0f ms\n",
              opts.workload.c_str(), ph.reqs.size(), done.size(), failed,
              percentile(lat_ms, 50.0), pct, percentile(lat_ms, pct), lat_ms.size(), limit_ms);

  r.attempted = ph.reqs.size();
  r.failed = failed;
  r.correct = failed == 0;
  r.e2e["latency_p50_ms"] = percentile(lat_ms, 50.0);
  r.e2e["latency_p99_ms"] = percentile(lat_ms, pct);
  // Paced: per second of schedule, so drain latency does not leak in.
  r.e2e["goodput_rps"] = static_cast<double>(within) / (paced ? opts.seconds : ph.wall_ms / 1e3);
  r.e2e["throughput_rps"] = static_cast<double>(done.size()) / (ph.wall_ms / 1e3);
  r.e2e["setup_s"] = percentile(setup_s, 50.0);
  r.e2e["precision_bits"] = precision_bits(worst);
  r.e2e["accuracy_pct"] = done.empty() ? 0.0 : 100.0 * static_cast<double>(agree) / static_cast<double>(done.size());

  r.layer["client.encrypt_ms"] = percentile(st->encrypt_ms, 50.0);
  r.layer["client.decrypt_ms"] = percentile(decrypt_ms, 50.0);
  // Per request path: its request blob plus its response blob.
  r.layer["io.serialize_ms"] = percentile(st->serialize_ms, 50.0) + percentile(resp_ser_ms, 50.0);
  r.layer["io.deserialize_ms"] = percentile(deser_ms, 50.0) + percentile(resp_deser_ms, 50.0);
  r.layer["io.request_bytes"] = static_cast<double>(st->request_bytes);
  r.layer["io.response_bytes"] = static_cast<double>(response_bytes);
  r.layer["keys.keygen_ms"] = st->keygen_ms;
  r.layer["keys.galois_ms"] = st->galois_ms;
  r.layer["keys.galois_bytes"] = st->galois_bytes;
  r.layer["planner.plan_ms"] = st->plan_ms;
  r.layer["serve.admit_ms"] = percentile(admit_ms, 50.0);
  r.layer["serve.queue_wait_ms"] = percentile(wait_ms, 50.0);
  r.layer["serve.group_eval_ms"] = percentile(group_ms, 50.0);
  double bsum = 0.0;
  for (const double b : batch) bsum += b;
  r.layer["serve.batch_size_mean"] = batch.empty() ? 0.0 : bsum / static_cast<double>(batch.size());
  r.layer["serve.flush_full"] = static_cast<double>(xs.flush_full);
  r.layer["serve.flush_deadline"] = static_cast<double>(xs.flush_deadline);
  r.layer["serve.rejected"] = static_cast<double>(xs.rejected);
  r.layer["serve.generator_lag_ms"] = percentile(lag_ms, 50.0);

  if (opts.trace) {
    // Pipeline alone, on a full packed group, off the executor: the op
    // counts that separate pipeline work from per-request pack/extract.
    Tenant& tn = st->tenants.front();
    smartpaf::FheRuntime& srv = tn.session->runtime();
    smartpaf::PlanOptions popts;
    popts.pack_stride = kInputSize;
    const smartpaf::Plan plan = smartpaf::Planner::plan(model, srv.ctx(),
                                                        smartpaf::CostModel::heuristic(), popts);
    std::vector<double> packed(srv.ctx().slot_count(), 0.0);
    for (int b = 0; b < kGroup; ++b)
      for (int j = 0; j < kInputSize; ++j)
        packed[static_cast<std::size_t>(b * kInputSize + j)] =
            tn.inputs[static_cast<std::size_t>(b) % kPool][static_cast<std::size_t>(j)];
    const fhe::Ciphertext in =
        io::deserialize_ciphertext(io::serialize(tn.client->encrypt(packed)), srv.ctx());
    std::vector<double> run_ms;
    std::vector<double> ops;
    for (int i = 0; i < 3; ++i) {
      const fhe::OpCounters c0 = srv.evaluator().counters;
      const std::int64_t a = now_ns();
      (void)model.run(srv, plan, in);
      run_ms.push_back(ms_between(a, now_ns()));
      ops = op_delta(srv.evaluator().counters, c0);
    }
    r.layer["pipeline.run_ms"] = percentile(run_ms, 50.0);
    record_ops(r, "pipeline.", ops);

    const int top = tn.client->ctx().q_count();
    const int bottom = std::max(2, top - plan.levels_used);  // + mask level
    const OpCosts ct = probe_costs(*tn.client, top);
    const OpCosts cb = probe_costs(*tn.client, bottom);
    record_costs(r, ct, cb);
    r.layer["planner.predicted_over_measured"] =
        predicted_plan_ms(plan, ct) / r.layer["pipeline.run_ms"];

    // Group split, attributed (the executor reports a group only as a whole).
    std::vector<double> full_ops;
    std::vector<double> full_ms;
    for (const auto& g : st->col.groups)
      if (g.size == static_cast<std::size_t>(kGroup) && g.end_ns > 0) {
        full_ops = g.ops;
        full_ms.push_back(ms_between(g.hook_ns, g.end_ns));
      }
    std::vector<double> group_ops = full_ops;
    if (group_ops.empty() && !st->col.groups.empty()) group_ops = st->col.groups.back().ops;
    const double group_measured = full_ms.empty() ? r.layer["serve.group_eval_ms"] : percentile(full_ms, 50.0);
    if (!group_ops.empty()) {
      std::vector<double> rest(group_ops.size());
      for (std::size_t i = 0; i < rest.size(); ++i) rest[i] = std::max(0.0, group_ops[i] - ops[i]);
      const double pipe_ms = explained_ms(ops, ct, cb);
      const double rest_ms = explained_ms(rest, ct, cb);
      r.layer["fhe.explained_frac"] = (pipe_ms + rest_ms) / group_measured;
      std::printf("[perfbench] group split (op counts x probe costs, %s group): pipeline %.1f ms, "
                  "pack+extract+mask %.1f ms, measured %.1f ms, explained %.0f%%\n",
                  full_ops.empty() ? "partial" : "full", pipe_ms, rest_ms, group_measured,
                  100.0 * r.layer["fhe.explained_frac"]);
    }
    if (!trace_report(opts, tracer, r)) r.correct = false;
  }
  r.e2e["peak_rss_mb"] = peak_rss_mb();
  return r;
}

}  // namespace perfbench
