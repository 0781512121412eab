// End-to-end benchmark of the smartpaf CKKS stack at 128-bit-secure
// parameters. Workloads: serve-paced, serve-burst and train-logreg. Untraced
// runs print the end-to-end metrics, traced runs (--trace 1) the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//        perfbench --list-metrics     (the metric names and units, as JSON)
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Result;

using MetricList = std::vector<std::pair<std::string, std::string>>;  // name, unit

const MetricList& end_to_end_metrics() {
  static const MetricList m = {
      {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},   {"goodput_rps", "1/s"},
      {"throughput_rps", "1/s"}, {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"precision_bits", "bits"}, {"accuracy_pct", "%"}};
  return m;
}

const MetricList& per_layer_metrics() {
  static const MetricList m = [] {
    MetricList v = {
        {"client.encrypt_ms", "ms"},      {"client.decrypt_ms", "ms"},
        {"io.serialize_ms", "ms"},        {"io.deserialize_ms", "ms"},
        {"io.request_bytes", "bytes"},    {"io.response_bytes", "bytes"},
        {"keys.keygen_ms", "ms"},         {"keys.galois_ms", "ms"},
        {"keys.galois_bytes", "bytes"},   {"planner.plan_ms", "ms"},
        {"planner.predicted_over_measured", "ratio"},
        {"serve.admit_ms", "ms"},         {"serve.queue_wait_ms", "ms"},
        {"serve.group_eval_ms", "ms"},    {"serve.batch_size_mean", "count"},
        {"serve.flush_full", "count"},    {"serve.flush_deadline", "count"},
        {"serve.rejected", "count"},      {"serve.generator_lag_ms", "ms"},
        {"pipeline.run_ms", "ms"}};
    for (const std::string& op : perfbench::kOpNames) v.emplace_back("pipeline." + op, "count");
    for (const char* lvl : {"_top", "_bottom"}) {
      const std::string s = lvl;
      v.emplace_back("fhe.rotate_ms" + s, "ms");
      v.emplace_back("fhe.hoisted_rotate_ms" + s, "ms");
      v.emplace_back("fhe.mult_relin_ms" + s, "ms");
      v.emplace_back("fhe.rescale_ms" + s, "ms");
      v.emplace_back("fhe.plain_mult_ms" + s, "ms");
      v.emplace_back("fhe.ntt_fwd_us" + s, "us");
      v.emplace_back("fhe.ntt_inv_us" + s, "us");
    }
    v.emplace_back("fhe.explained_frac", "ratio");
    v.emplace_back("train.pack_ms", "ms");
    v.emplace_back("train.step_ms", "ms");
    v.emplace_back("train.checkpoint_ms", "ms");
    v.emplace_back("train.checkpoint_bytes", "bytes");
    for (const std::string& op : perfbench::kOpNames) v.emplace_back("train." + op, "count");
    v.emplace_back("trace.other_share", "ratio");
    v.emplace_back("trace.overhead_frac", "ratio");
    return v;
  }();
  return m;
}

/// The metric names and units this binary reports, as JSON; run.py's
/// self-test checks them against BENCHMARK.json.
void list_metrics() {
  auto dump = [](const char* key, const MetricList& m) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < m.size(); ++i)
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                  m[i].first.c_str(), m[i].second.c_str());
    std::printf("]");
  };
  std::printf("{");
  dump("end_to_end", end_to_end_metrics());
  std::printf(", ");
  dump("per_layer", per_layer_metrics());
  std::printf("}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-paced|serve-burst|train-logreg "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") opts.workload = v;
    else if (a == "--seed") opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") opts.seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--trace") opts.trace = v == "1";
    else return usage();
  }
  if (!(opts.seconds > 0.0)) return usage();

  Result r;
  try {
    if (opts.trace) std::filesystem::create_directories(perfbench::kTraceDir);
    if (opts.workload == "serve-paced") r = perfbench::run_serve(opts, /*paced=*/true);
    else if (opts.workload == "serve-burst") r = perfbench::run_serve(opts, /*paced=*/false);
    else if (opts.workload == "train-logreg") r = perfbench::run_train(opts);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }

  const MetricList& wanted = opts.trace ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = opts.trace ? r.layer : r.e2e;
  std::printf("[perfbench] %s seed %llu: attempted %zu, succeeded %zu, failed %zu\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), r.attempted,
              r.attempted - r.failed, r.failed);
  for (const auto& [name, unit] : wanted) {
    const auto it = values.find(name);
    std::printf("  %-36s %16.6f %s\n", name.c_str(), it == values.end() ? 0.0 : it->second,
                unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    const auto it = values.find(wanted[i].first);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                wanted[i].first.c_str(), it == values.end() ? 0.0 : it->second,
                wanted[i].second.c_str());
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
