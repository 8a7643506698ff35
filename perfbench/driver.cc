// perfbench_driver: runs one workload of the repository benchmark and
// prints every metric it measured as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary and selects the metrics BENCHMARK.json names.
//
//   perfbench_driver --workload engine-2d --seed 1 --seconds 10 --trace 0
//       --work-dir .bench_build/work --bin-dir .bench_build [--commit ID]
//
// Exit codes: 0 a clean run; 1 an answer differed from the reference or
// the recovered store lost acknowledged writes (the JSON still prints,
// with "correct": false); 2 refused (bad flags, fault injection or a
// forced kernel in the environment, a sanitizer build); 3 the run broke
// its own measurement rules (open-loop generator lag) and is invalid, not
// slow; 4 set-up or execution error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "mc/simd/kernels.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Every per-layer metric, with its unit. A workload that does not
// exercise a layer reports 0 for it ("little work" in the layer table).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"core.prep_us", "us"},
    {"core.phase1_us", "us"},
    {"core.phase2_us", "us"},
    {"core.candidates_per_result", "ratio"},
    {"core.prune_frac", "ratio"},
    {"core.bf_accept_frac", "ratio"},
    {"index.node_reads_per_query", "count"},
    {"index.pages_read_per_query", "count"},
    {"index.buffer_hit_ratio", "ratio"},
    {"index.node_read_drift", "ratio"},
    {"mc.phase3_us", "us"},
    {"mc.pool_build_us", "us"},
    {"mc.samples_per_decision", "count"},
    {"mc.early_stop_frac", "ratio"},
    {"mc.undecided_frac", "ratio"},
    {"mc.decisions_per_ms", "1/ms"},
    {"exec.queue_wait_us", "us"},
    {"exec.task_us", "us"},
    {"exec.worker_imbalance", "ratio"},
    {"exec.cores_used", "ratio"},
    {"cache.hit_exact_frac", "ratio"},
    {"cache.hit_semantic_frac", "ratio"},
    {"cache.evictions_per_query", "count"},
    {"cache.hit_ms", "ms"},
    {"cache.miss_ms", "ms"},
    {"cache.invalidations_per_commit", "count"},
    {"storage.commit_us", "us"},
    {"storage.fsyncs_per_op", "count"},
    {"storage.wal_bytes_per_op", "B"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.checkpoint_stall_ms", "ms"},
    {"storage.space_amp", "ratio"},
    {"storage.checkpoints", "count"},
    {"net.rtt_us", "us"},
    {"net.server_us", "us"},
    {"net.wire_us", "us"},
    {"net.bytes_per_query", "B"},
    {"shard.routed_frac", "ratio"},
    {"shard.scatter_us", "us"},
    {"remote.rpc_us", "us"},
    {"remote.rpcs_per_query", "count"},
    {"remote.retries_per_query", "count"},
    {"remote.hedges_per_query", "count"},
    {"remote.degraded_shards", "count"},
    {"remote.coordinator_self_us", "us"},
    {"trace.overhead_frac", "ratio"},
    {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},
    {"write_amp", "ratio"},
    {"slo_miss_frac", "ratio"},
    {"failed_frac", "ratio"},
    {"run.queries", "count"},
    {"run.generator_lag_p99_ms", "ms"},
};

// engine-2d. Untraced, it is the in-process closed loop. Traced, the
// window is split: the first half runs in process, the second half sends
// the same query stream through the two-backend deployment of
// remote_open.cc, so one traced run gives every layer from engine to
// coordinator. The remote half reports only its own layers.
Status RunEngine2d(const RunConfig& config, Report* report) {
  if (!config.trace) return RunStatic(config, false, report);
  RunConfig half = config;
  half.seconds = config.seconds / 2.0;
  GPRQ_RETURN_NOT_OK(RunStatic(half, false, report));
  Report served;
  GPRQ_RETURN_NOT_OK(RunRemoteLayers(half, &served));
  for (const auto& [name, metric] : served.metrics) {
    report->metrics[name] = metric;
  }
  report->attempted += served.attempted;
  report->failed += served.failed;
  report->mismatches += served.mismatches;
  if (served.invalid) report->Invalidate(served.invalid_reason);
  return Status::OK();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --bin-dir DIR [--commit ID]\n"
               "workloads: engine-2d feedback-9d live-churn\n");
  return 2;
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

// The build settings are fixed by perfbench/CMakeLists.txt.
void PrintFacts(const RunConfig& config, const std::string& commit) {
  namespace simd = gprq::mc::simd;
  Log("facts {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"phase3_kernel\": \"%s\", "
      "\"build_type\": \"Release\", \"GPRQ_OBS\": 1, \"GPRQ_FAULT\": 1, "
      "\"GPRQ_SIMD\": 1, \"GPRQ_SANITIZE\": \"\", \"commit\": \"%s\"}",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
      simd::KernelName(simd::DispatchedKind()), commit.c_str());
}

void PrintResult(const Report& report) {
  std::string json = "{\"correct\": ";
  json += (report.mismatches == 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") config.workload = value;
    else if (flag == "--seed") config.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") config.seconds = std::atof(value.c_str());
    else if (flag == "--trace") { config.trace = value == "1"; have_trace = true; }
    else if (flag == "--work-dir") config.work_dir = value;
    else if (flag == "--bin-dir") config.bin_dir = value;
    else if (flag == "--commit") commit = value;
    else return Usage();
  }
  if (argc % 2 != 1 || config.workload.empty() || !have_trace ||
      config.work_dir.empty() || config.bin_dir.empty() ||
      !(config.seconds > 0.0)) {
    return Usage();
  }
  for (const char* forbidden : {"GPRQ_FAILPOINTS", "GPRQ_SIMD_KERNEL"}) {
    if (std::getenv(forbidden) != nullptr) {
      std::fprintf(stderr, "refusing to run: %s is set\n", forbidden);
      return 2;
    }
  }
  if (SanitizerBuild()) {
    std::fprintf(stderr, "refusing to run: sanitizer build\n");
    return 2;
  }
  PrintFacts(config, commit);

  Report report;
  Status status;
  if (config.workload == "engine-2d") status = RunEngine2d(config, &report);
  else if (config.workload == "feedback-9d") status = RunStatic(config, true, &report);
  else if (config.workload == "live-churn") status = RunLiveChurn(config, &report);
  else return Usage();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 4;
  }
  if (report.invalid) {
    std::fprintf(stderr, "invalid run: %s\n", report.invalid_reason.c_str());
    return 3;
  }
  report.Set("failed_frac",
             report.attempted > 0 ? static_cast<double>(report.failed) /
                                        static_cast<double>(report.attempted)
                                  : 0.0,
             "ratio");
  if (config.trace) {
    for (const LayerMetric& metric : kLayerMetrics) {
      if (report.metrics.count(metric.name) == 0) {
        report.Set(metric.name, 0.0, metric.unit);
      }
    }
  }
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n", name.c_str());
      return 4;
    }
  }
  PrintResult(report);
  return report.mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
