// Per-layer metrics of the in-process workloads, read from the
// obs::QueryTrace each traced call returns and from deltas of the
// library's own gprq.* registry counters over the timed window.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

/// Sums over the traced queries of a run.
struct TraceTally {
  uint64_t queries = 0;
  uint64_t phase_nanos[gprq::obs::QueryTrace::kPhaseCount] = {};
  uint64_t node_reads = 0;
  // Over the queries that ran the filter phases (no exact cache hit).
  uint64_t index_candidates = 0;
  uint64_t pruned = 0;
  uint64_t bf_accepted = 0;
  uint64_t filtered_results = 0;
  uint64_t hit_exact = 0;
  uint64_t hit_semantic = 0;
  Samples hit_latency;
  Samples miss_latency;
  // Phase-1 time of each query that ran a fresh index search, in order.
  std::vector<double> phase1_series;

  void Add(const gprq::obs::QueryTrace& trace, double latency_seconds);
};

/// Sets the core.*, index.*, mc.*, exec.* and cache.* metrics. `queries`
/// counts every query of the window (traced or not), which is what the
/// registry deltas cover; `wall` and `cpu` are the window's seconds.
void SetEngineLayers(const TraceTally& tally, const RegistryDelta& delta,
                     double queries, double wall, double cpu, Report* report);

/// index.pages_read_per_query and index.buffer_hit_ratio, the paged-tree
/// figures (shared with the remote layers, whose deltas come from the
/// backends' STATS).
void SetPagedIndexLayers(const RegistryDelta& delta, double queries,
                         Report* report);

/// trace.overhead_frac: the traced queries' median latency relative to
/// the untraced ones' of the same run, minus one.
void SetTraceOverhead(const Samples& traced, const Samples& untraced,
                      Report* report);

/// Ratio of the mean of the last tenth of `series` to its first tenth
/// (0 when the series is too short to have both).
double TenthDrift(const std::vector<double>& series);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
