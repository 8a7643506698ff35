// The workloads of the repository benchmark. Each sets up its deployment
// several times (setup_s is the median), measures for config.seconds,
// checks every answer it can against the reference path, and fills
// `report`.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// engine-2d (feedback = false) and feedback-9d (feedback = true).
Status RunStatic(const RunConfig& config, bool feedback, Report* report);
/// live-churn: LivePrqEngine reader beside a fixed-rate writer.
Status RunLiveChurn(const RunConfig& config, Report* report);
/// The second half of engine-2d's traced run: the engine-2d stream through
/// two shard backends behind a coordinator, child processes. Reports the
/// net, shard, remote and paged-index layers and slo_miss_frac only.
Status RunRemoteLayers(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
