// Shared measurement plumbing of the repository benchmark: clocks,
// latency samples, the metric report, process CPU/RSS probes, registry
// deltas, and child-process control for the multi-process workload.
//
// Everything here measures the program from outside: the benchmark times
// its own calls into public library functions and reads counters the
// library already exports (obs::MetricRegistry in process, the STATS
// frame for child processes). Nothing under src/ is instrumented for it.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace perfbench {

using gprq::Result;
using gprq::Status;

/// Monotonic seconds (steady clock).
double Now();

/// Sleeps until the steady-clock time `when` (seconds, as Now()).
void SleepUntil(double when);

/// A bag of latency samples (seconds) with interpolated percentiles.
class Samples {
 public:
  void Add(double seconds) { values_.push_back(seconds); }
  size_t size() const { return values_.size(); }
  double Sum() const;
  double Mean() const;
  /// Linear interpolation between order statistics, q in [0, 1]; 0 when
  /// empty.
  double Quantile(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Samples stamped with the time they completed, for statistics that
/// stay steady when a short stall hits one part of the timed window: the
/// window is cut into kSlices equal slices and the median over slices is
/// reported.
class TimedSamples {
 public:
  static constexpr int kSlices = 5;
  void Add(double when, double value) { points_.emplace_back(when, value); }
  /// Median over the slices of [start, end) of each slice's q-quantile.
  double SliceQuantile(double start, double end, double q) const;

 private:
  std::vector<Samples> Slice(double start, double end) const;
  std::vector<std::pair<double, double>> points_;
};

/// The run's outcome: every metric by name with its unit, plus the
/// correctness tallies every run reports.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;  // answers that differ from the reference
  bool invalid = false;     // the run broke its own measurement rules
  std::string invalid_reason;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Invalidate(const std::string& reason) {
    invalid = true;
    if (!invalid_reason.empty()) invalid_reason += "; ";
    invalid_reason += reason;
  }
};

/// What one invocation measures.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
  std::string bin_dir;   // where gprq_server / gprq_coordinator live
};

/// Set-up repetitions per run: setup_s reports their median.
inline constexpr int kSetupRepeats = 5;

/// Process CPU (user + sys) in seconds, from getrusage.
double SelfCpuSeconds();
/// Peak resident set of this process, MiB, from getrusage.
double SelfPeakRssMb();

/// Difference of two global-registry snapshots, by metric name.
class RegistryDelta {
 public:
  RegistryDelta() = default;
  RegistryDelta(const gprq::obs::RegistrySnapshot& before,
                const gprq::obs::RegistrySnapshot& after);
  /// Builds the delta from two STATS JSON bodies (TextExporter::Json).
  static RegistryDelta FromJson(const std::string& before,
                                const std::string& after);

  double Counter(const std::string& name) const;
  /// Histogram deltas: number of records and their summed value.
  double HistCount(const std::string& name) const;
  double HistSum(const std::string& name) const;
  /// Sum of every counter whose name starts with `prefix` and ends with
  /// `suffix` (per-worker families such as gprq.exec.worker.<w>.*).
  std::vector<double> CounterFamily(const std::string& prefix,
                                    const std::string& suffix) const;
  /// Adds another delta into this one (several child processes).
  void Merge(const RegistryDelta& other);

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, std::pair<double, double>> hists_;  // count, sum
};

/// Snapshot of the process-wide registry.
gprq::obs::RegistrySnapshot RegistryNow();

/// A child process started with its stdout piped back. The destructor
/// stops it (SIGTERM, then SIGKILL after a grace period) and reaps it, so
/// no process outlives the benchmark. Children also get SIGKILL if the
/// benchmark itself dies.
class Child {
 public:
  static Result<Child> Spawn(const std::vector<std::string>& argv,
                             const std::string& stderr_path);
  Child() = default;
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  /// Reads stdout lines until one contains `marker`, for at most
  /// `timeout_seconds`; returns that line.
  Result<std::string> WaitForLine(const std::string& marker,
                                  double timeout_seconds);
  /// SIGTERM, wait up to `grace_seconds`, then SIGKILL, and reap.
  void Stop(double grace_seconds = 5.0);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string buffered_;
};

/// Parses "key=<digits>" out of a READY line.
Result<uint64_t> ReadyField(const std::string& line, const std::string& key);

/// Creates `path` and its parents (mkdir -p); removes a tree (rm -rf).
Status MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);
/// File size in bytes, 0 when absent.
uint64_t FileBytes(const std::string& path);

/// Log line on stdout, prefixed so the final JSON line stays last.
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
