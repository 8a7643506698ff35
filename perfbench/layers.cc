#include "layers.h"

#include <algorithm>

namespace perfbench {

using gprq::obs::QueryTrace;

namespace {
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void TraceTally::Add(const QueryTrace& trace, double latency_seconds) {
  ++queries;
  for (size_t p = 0; p < QueryTrace::kPhaseCount; ++p) {
    phase_nanos[p] += trace.phase_nanos[p];
  }
  node_reads += trace.index_visits;
  if (trace.cache_hit_exact || trace.cache_hit_semantic) {
    hit_exact += trace.cache_hit_exact ? 1 : 0;
    hit_semantic += trace.cache_hit_semantic ? 1 : 0;
    hit_latency.Add(latency_seconds);
  } else {
    miss_latency.Add(latency_seconds);
    phase1_series.push_back(
        static_cast<double>(trace.phase_nanos[QueryTrace::kPhase1]));
  }
  if (!trace.cache_hit_exact) {
    index_candidates += trace.index_candidates;
    pruned += trace.pruned_total();
    bf_accepted += trace.accepted_bf_inner;
    filtered_results += trace.result_size;
  }
}

double TenthDrift(const std::vector<double>& series) {
  const size_t tenth = series.size() / 10;
  if (tenth == 0) return 0.0;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < tenth; ++i) {
    first += series[i];
    last += series[series.size() - tenth + i];
  }
  return Ratio(last, first);
}

void SetTraceOverhead(const Samples& traced, const Samples& untraced,
                      Report* report) {
  const double base = untraced.Quantile(0.5);
  report->Set("trace.overhead_frac",
              base > 0.0 ? traced.Quantile(0.5) / base - 1.0 : 0.0, "ratio");
}

void SetPagedIndexLayers(const RegistryDelta& delta, double queries,
                         Report* report) {
  const double node_reads =
      delta.Counter("gprq.index.buffer_pool.hits") +
      delta.Counter("gprq.index.buffer_pool.misses");
  report->Set("index.pages_read_per_query",
              Ratio(delta.Counter("gprq.index.paged.pages_read"), queries),
              "count");
  report->Set("index.buffer_hit_ratio",
              Ratio(delta.Counter("gprq.index.buffer_pool.hits"), node_reads),
              "ratio");
}

void SetEngineLayers(const TraceTally& tally, const RegistryDelta& delta,
                     double queries, double wall, double cpu, Report* report) {
  const double traced = static_cast<double>(tally.queries);
  const auto per_query_us = [&](QueryTrace::Phase phase) {
    return Ratio(static_cast<double>(tally.phase_nanos[phase]) * 1e-3, traced);
  };
  report->Set("core.prep_us", per_query_us(QueryTrace::kPrep), "us");
  report->Set("core.phase1_us", per_query_us(QueryTrace::kPhase1), "us");
  report->Set("core.phase2_us", per_query_us(QueryTrace::kPhase2), "us");
  report->Set("core.candidates_per_result",
              Ratio(static_cast<double>(tally.index_candidates),
                    static_cast<double>(tally.filtered_results)),
              "ratio");
  report->Set("core.prune_frac",
              Ratio(static_cast<double>(tally.pruned),
                    static_cast<double>(tally.index_candidates)),
              "ratio");
  report->Set("core.bf_accept_frac",
              Ratio(static_cast<double>(tally.bf_accepted),
                    static_cast<double>(tally.index_candidates)),
              "ratio");
  report->Set("index.node_reads_per_query",
              Ratio(static_cast<double>(tally.node_reads), traced), "count");
  report->Set("index.node_read_drift", TenthDrift(tally.phase1_series),
              "ratio");
  SetPagedIndexLayers(delta, queries, report);
  report->Set("mc.phase3_us", per_query_us(QueryTrace::kPhase3), "us");
  const double decisions = delta.Counter("gprq.mc.decisions");
  report->Set("mc.pool_build_us",
              Ratio(delta.HistSum("gprq.mc.pool_build_nanos") * 1e-3, queries),
              "us");
  report->Set("mc.samples_per_decision",
              Ratio(delta.Counter("gprq.mc.samples_used"), decisions),
              "count");
  report->Set("mc.early_stop_frac",
              Ratio(delta.Counter("gprq.mc.early_stops"), decisions), "ratio");
  report->Set("mc.undecided_frac",
              Ratio(delta.Counter("gprq.mc.undecided"), decisions), "ratio");
  report->Set("mc.decisions_per_ms",
              Ratio(decisions, delta.HistSum("gprq.exec.phase3_nanos") * 1e-6),
              "1/ms");
  report->Set("exec.queue_wait_us",
              Ratio(delta.HistSum("gprq.exec.queue_wait_nanos") * 1e-3,
                    delta.HistCount("gprq.exec.queue_wait_nanos")),
              "us");
  report->Set("exec.task_us",
              Ratio(delta.HistSum("gprq.exec.task_nanos") * 1e-3,
                    delta.HistCount("gprq.exec.task_nanos")),
              "us");
  const std::vector<double> per_worker =
      delta.CounterFamily("gprq.exec.worker.", ".integrations");
  double total = 0.0;
  double busiest = 0.0;
  for (double v : per_worker) {
    total += v;
    busiest = std::max(busiest, v);
  }
  const double mean =
      per_worker.empty() ? 0.0 : total / static_cast<double>(per_worker.size());
  report->Set("exec.worker_imbalance", Ratio(busiest, mean), "ratio");
  report->Set("exec.cores_used", Ratio(cpu, wall), "ratio");
  report->Set("cache.hit_exact_frac",
              Ratio(static_cast<double>(tally.hit_exact), traced), "ratio");
  report->Set("cache.hit_semantic_frac",
              Ratio(static_cast<double>(tally.hit_semantic), traced), "ratio");
  report->Set("cache.evictions_per_query",
              Ratio(delta.Counter("gprq.cache.evictions"), queries), "count");
  report->Set("cache.hit_ms", tally.hit_latency.Mean() * 1e3, "ms");
  report->Set("cache.miss_ms", tally.miss_latency.Mean() * 1e3, "ms");
  report->Set("cache.invalidations_per_commit",
              Ratio(delta.Counter("gprq.cache.invalidations"),
                    delta.Counter("gprq.storage.commits")),
              "count");
}

}  // namespace perfbench
