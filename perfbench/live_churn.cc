// live-churn: storage::LivePrqEngine over storage::StorageEngine, with a
// writer and a reader side by side.
//
//  * Set-up loads the TIGER points through the logged write path and
//    checkpoints them.
//  * Both sides work in one 200×200 window of the map, the densest of
//    its 5×5 blocks (fixed by the dataset, not the seed).
//  * The writer is open loop at a fixed rate: every 1/kBatchesPerSecond
//    seconds a batch of kBatchOps operations (each an insert with
//    probability 0.7, else a delete) lands in one random 20×20 cell of the
//    window. Flush() acknowledges the batch: group commit with one WAL
//    fsync per batch. Every kCheckpointOps operations the writer calls
//    Checkpoint(). Write latency runs from the batch's due time to its
//    acknowledgement, so checkpoint stalls show.
//  * The reader is one closed-loop client that repeats a fixed set of
//    kReaderQueries queries centred in the window (the paper's Table I setting: γ = 10,
//    δ = 25, θ = 0.01). They fit the result cache, but each commit
//    invalidates the answers whose region covers its cell, so most reads
//    miss and run the full pipeline on the churned tree.
//
// Correctness: kOracleSamples reader queries, spread over the run, are
// answered again afterwards against a bulk load of the snapshot they ran
// on (ScanAll). Every second sample must be a cache miss, so the full
// pipeline on the churned tree is checked, not only cached answers. A run
// that could not take every sample is invalid: it checked too little. The
// store is then reopened, and the recovered state must equal the
// acknowledged writes.
#include <algorithm>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_map>

#include "exec/batch_executor.h"
#include "harness.h"
#include "index/str_bulk_load.h"
#include "layers.h"
#include "queries.h"
#include "rng/random.h"
#include "storage/live_engine.h"
#include "storage/storage_engine.h"
#include "workloads.h"

namespace perfbench {

namespace core = gprq::core;
namespace storage = gprq::storage;
using gprq::la::Vector;

namespace {

constexpr size_t kBatchOps = 8;
constexpr double kBatchesPerSecond = 100.0;
constexpr uint64_t kCheckpointOps = 2000;
constexpr double kInsertShare = 0.7;
constexpr double kExtent = 1000.0;
constexpr size_t kCellsPerSide = 50;    // 20×20 cells
constexpr size_t kWindowCells = 10;     // the window is 10×10 cells
constexpr size_t kBlocksPerSide = kCellsPerSide / kWindowCells;
constexpr size_t kReaderQueries = 32;
constexpr uint64_t kReaderSetSeed = 0x4EAD;
constexpr size_t kOracleSamples = 12;
constexpr size_t kUserBytesPerOp = 2 * sizeof(double) + sizeof(ObjectId);
constexpr ObjectId kFirstNewId = 1000000;

storage::StorageOptions ChurnOptions() {
  storage::StorageOptions options;
  // Commits happen only at the explicit Flush() that ends each batch.
  options.group_commit_ops = std::numeric_limits<size_t>::max();
  return options;
}

struct LiveSetup {
  std::string dir;
  std::unique_ptr<storage::StorageEngine> store;
  std::unique_ptr<gprq::exec::BatchExecutor> executor;
  std::unique_ptr<storage::LivePrqEngine> live;
  // Acknowledged contents: id -> point.
  std::unordered_map<ObjectId, Vector> acked;
};

Result<std::unique_ptr<LiveSetup>> SetUp(const std::string& dir) {
  RemoveTree(dir);
  GPRQ_RETURN_NOT_OK(MakeDirs(dir));
  auto setup = std::make_unique<LiveSetup>();
  setup->dir = dir;
  const gprq::workload::Dataset dataset = TigerDataset();
  auto store = storage::StorageEngine::Create(dir, dataset.dim, ChurnOptions());
  if (!store.ok()) return store.status();
  setup->store = std::move(*store);
  for (size_t i = 0; i < dataset.size(); ++i) {
    const ObjectId id = static_cast<ObjectId>(i);
    GPRQ_RETURN_NOT_OK(setup->store->Insert(dataset.points[i], id));
    setup->acked.emplace(id, dataset.points[i]);
    if ((i + 1) % 8192 == 0) GPRQ_RETURN_NOT_OK(setup->store->Flush());
  }
  GPRQ_RETURN_NOT_OK(setup->store->Flush());
  GPRQ_RETURN_NOT_OK(setup->store->Checkpoint());
  auto executor =
      gprq::exec::BatchExecutor::CreateDetached(McFactory(), kPhase3Workers);
  if (!executor.ok()) return executor.status();
  setup->executor = std::move(*executor);
  setup->live = std::make_unique<storage::LivePrqEngine>(
      setup->store.get(), setup->executor.get());
  GPRQ_RETURN_NOT_OK(
      setup->live->EnableResultCache(gprq::cache::ResultCacheOptions{}));
  // Builds the live engine's lazy U-catalogs and first pools.
  const Query2dStream warm(&dataset, 0x3A11);
  for (uint64_t i = 0; i < 4; ++i) {
    auto result = setup->live->ExecuteBounded(warm.At(i), core::PrqOptions{});
    if (!result.ok()) return result.status();
  }
  return setup;
}

// The writer's view of the map: live ids per cell, for local deletes.
class CellIndex {
 public:
  explicit CellIndex(const std::unordered_map<ObjectId, Vector>& points)
      : cells_(kCellsPerSide * kCellsPerSide) {
    for (const auto& [id, point] : points) cells_[CellOf(point)].push_back(id);
  }
  static size_t CellOf(const Vector& point) {
    const auto axis = [](double v) {
      const double scaled = v / kExtent * static_cast<double>(kCellsPerSide);
      return std::min<size_t>(kCellsPerSide - 1,
                              static_cast<size_t>(std::max(0.0, scaled)));
    };
    return axis(point[1]) * kCellsPerSide + axis(point[0]);
  }
  std::vector<ObjectId>& cell(size_t c) { return cells_[c]; }

 private:
  std::vector<std::vector<ObjectId>> cells_;
};

struct WriterResult {
  Samples write_latency;  // due time -> Flush() returned
  Samples lag;            // due time -> batch started
  Samples checkpoint_seconds;
  std::vector<std::pair<double, double>> checkpoint_windows;
  uint64_t batches = 0;
  uint64_t failed_batches = 0;
  uint64_t ops = 0;
  uint64_t wal_bytes = 0;         // bytes the WAL grew by, all restarts
  uint64_t checkpoint_bytes = 0;  // bytes of every checkpoint written
};

// The densest kWindowCells × kWindowCells block of cells: its lower-left
// cell coordinates.
std::pair<size_t, size_t> DensestWindow(const gprq::workload::Dataset& data) {
  std::vector<size_t> counts(kBlocksPerSide * kBlocksPerSide);
  for (const Vector& point : data.points) {
    const size_t cell = CellIndex::CellOf(point);
    const size_t bx = (cell % kCellsPerSide) / kWindowCells;
    const size_t by = (cell / kCellsPerSide) / kWindowCells;
    ++counts[by * kBlocksPerSide + bx];
  }
  const size_t best = static_cast<size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  return {(best % kBlocksPerSide) * kWindowCells,
          (best / kBlocksPerSide) * kWindowCells};
}

bool InWindow(const std::pair<size_t, size_t>& window, const Vector& point) {
  const size_t cell = CellIndex::CellOf(point);
  const size_t cx = cell % kCellsPerSide;
  const size_t cy = cell / kCellsPerSide;
  return cx >= window.first && cx < window.first + kWindowCells &&
         cy >= window.second && cy < window.second + kWindowCells;
}

void RunWriter(LiveSetup* setup, std::pair<size_t, size_t> window,
               uint64_t seed, double start, double end, WriterResult* out) {
  const std::string wal_path =
      setup->dir + "/" + storage::StorageEngine::kWalFile;
  const std::string checkpoint_path =
      setup->dir + "/" + storage::StorageEngine::kCheckpointFile;
  uint64_t wal_at_restart = FileBytes(wal_path);
  CellIndex cells(setup->acked);
  std::unordered_map<ObjectId, Vector> pending_points = setup->acked;
  gprq::rng::Random random(Mix(seed, 0x3717E));
  ObjectId next_id = kFirstNewId;
  uint64_t ops_since_checkpoint = 0;
  for (uint64_t k = 0;; ++k) {
    const double due = start + static_cast<double>(k) / kBatchesPerSecond;
    if (due >= end) break;
    SleepUntil(due);
    out->lag.Add(Now() - due);
    const size_t offset = random.NextUint64(kWindowCells * kWindowCells);
    const size_t cell =
        (window.second + offset / kWindowCells) * kCellsPerSide +
        window.first + offset % kWindowCells;
    const double cell_size = kExtent / static_cast<double>(kCellsPerSide);
    const double x0 = static_cast<double>(cell % kCellsPerSide) * cell_size;
    const double y0 = static_cast<double>(cell / kCellsPerSide) * cell_size;
    std::vector<std::pair<ObjectId, Vector>> inserted;
    std::vector<ObjectId> deleted;
    Status status;
    for (size_t op = 0; op < kBatchOps && status.ok(); ++op) {
      std::vector<ObjectId>& ids = cells.cell(cell);
      if (random.NextDouble() < kInsertShare || ids.empty()) {
        const Vector point{x0 + random.NextDouble() * cell_size,
                           y0 + random.NextDouble() * cell_size};
        const ObjectId id = next_id++;
        status = setup->store->Insert(point, id);
        ids.push_back(id);
        pending_points.emplace(id, point);
        inserted.emplace_back(id, point);
      } else {
        const size_t pick = random.NextUint64(ids.size());
        const ObjectId id = ids[pick];
        ids[pick] = ids.back();
        ids.pop_back();
        status = setup->store->Delete(pending_points.at(id), id);
        pending_points.erase(id);
        deleted.push_back(id);
      }
    }
    if (status.ok()) status = setup->store->Flush();
    out->write_latency.Add(Now() - due);
    ++out->batches;
    out->ops += kBatchOps;
    if (!status.ok()) {
      // The store seals itself after a failed commit; stop writing.
      ++out->failed_batches;
      break;
    }
    for (auto& [id, point] : inserted) setup->acked.emplace(id, point);
    for (ObjectId id : deleted) setup->acked.erase(id);
    ops_since_checkpoint += kBatchOps;
    if (ops_since_checkpoint >= kCheckpointOps) {
      out->wal_bytes += FileBytes(wal_path) - wal_at_restart;
      const double t0 = Now();
      const Status checkpointed = setup->store->Checkpoint();
      const double t1 = Now();
      if (!checkpointed.ok()) {
        ++out->failed_batches;
        break;
      }
      out->checkpoint_seconds.Add(t1 - t0);
      out->checkpoint_windows.emplace_back(t0, t1);
      out->checkpoint_bytes += FileBytes(checkpoint_path);
      wal_at_restart = FileBytes(wal_path);
      ops_since_checkpoint = 0;
    }
  }
  out->wal_bytes += FileBytes(wal_path) - wal_at_restart;
}

// A reader answer kept for the oracle. The engine pins its epoch at
// admission, between the reader's pins `before` and `after`, which are at
// most one commit apart; so the answer must be right for one of them.
struct OracleSample {
  std::shared_ptr<const storage::StorageSnapshot> before;
  std::shared_ptr<const storage::StorageSnapshot> after;
  core::PrqQuery query;
  std::vector<ObjectId> answer;
  bool cache_hit = false;
};

// Answers `query` through the plain path over a fresh bulk load of the
// snapshot's points.
Result<std::vector<ObjectId>> AnswerOn(const storage::StorageSnapshot& snapshot,
                                       const core::PrqQuery& query) {
  std::vector<Vector> points;
  std::vector<ObjectId> ids;
  snapshot.ScanAll([&](const Vector& point, ObjectId id) {
    points.push_back(point);
    ids.push_back(id);
  });
  auto tree = gprq::index::StrBulkLoader::Load(snapshot.dim(), points, ids);
  if (!tree.ok()) return tree.status();
  const core::PrqEngine engine(&*tree);
  auto reference = ReferenceAnswers(&engine, {query}, 1);
  if (!reference.ok()) return reference.status();
  return std::move((*reference)[0]);
}

Result<bool> CheckSample(const OracleSample& sample) {
  for (const auto* snapshot : {&sample.before, &sample.after}) {
    auto reference = AnswerOn(**snapshot, sample.query);
    if (!reference.ok()) return reference.status();
    if (*reference == sample.answer) return true;
    if (sample.before->epoch() == sample.after->epoch()) break;
  }
  return false;
}

}  // namespace

Status RunLiveChurn(const RunConfig& config, Report* report) {
  const std::string dir = config.work_dir + "/live-churn";
  Samples setup_times;
  std::unique_ptr<LiveSetup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup.reset();
    const double t0 = Now();
    auto made = SetUp(dir);
    if (!made.ok()) return made.status();
    setup_times.Add(Now() - t0);
    setup = std::move(*made);
  }
  const gprq::workload::Dataset dataset = TigerDataset();
  const std::pair<size_t, size_t> window = DensestWindow(dataset);
  std::vector<size_t> in_window;
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (InWindow(window, dataset.points[i])) in_window.push_back(i);
  }
  // The reader's query set is fixed, so the p99 does not depend on which
  // centres a seed happened to draw; the seed drives the order in which
  // the reader repeats them and everything the writer does.
  gprq::rng::Random picker(kReaderSetSeed);
  const gprq::la::Matrix covariance = gprq::workload::PaperCovariance2D(10.0);
  std::vector<core::PrqQuery> reader_set;
  for (size_t i = 0; i < kReaderQueries; ++i) {
    Vector center =
        dataset.points[in_window[picker.NextUint64(in_window.size())]];
    for (size_t d = 0; d < center.dim(); ++d) {
      center[d] += picker.NextDouble(-0.5, 0.5);
    }
    auto gaussian =
        core::GaussianDistribution::Create(std::move(center), covariance);
    reader_set.push_back(core::PrqQuery{std::move(*gaussian), 25.0, 0.01});
  }

  const gprq::obs::RegistrySnapshot before = RegistryNow();
  const double cpu0 = SelfCpuSeconds();
  const double start = Now();
  const double end = start + config.seconds;
  WriterResult writer;
  std::thread writer_thread(RunWriter, setup.get(), window, config.seed,
                            start, end, &writer);

  // The reader (this thread): closed loop over the query set.
  gprq::rng::Random random(Mix(config.seed, 0x4EADE4));
  Samples latency, traced_latency, untraced_latency;
  TimedSamples timed;
  TraceTally tally;
  std::vector<std::pair<double, double>> reader_windows;
  std::vector<OracleSample> samples;
  uint64_t reader_failed = 0;
  for (uint64_t i = 0; Now() < end; ++i) {
    const core::PrqQuery& query = reader_set[random.NextUint64(kReaderQueries)];
    const bool traced = config.trace && (i % 2 == 1);
    // A sample is due every 1/kOracleSamples of the run. It is taken on
    // the first query that sees at most one commit while it runs and, for
    // every second sample, is a cache miss.
    const bool want_sample =
        samples.size() < kOracleSamples &&
        Now() >= start + (static_cast<double>(samples.size()) + 0.5) *
                             config.seconds / kOracleSamples;
    auto pinned = want_sample ? setup->store->PinSnapshot() : nullptr;
    gprq::obs::QueryTrace query_trace;
    const double t0 = Now();
    auto result = setup->live->ExecuteBounded(
        query, core::PrqOptions{}, nullptr,
        traced || want_sample ? &query_trace : nullptr);
    const double t1 = Now();
    latency.Add(t1 - t0);
    timed.Add(t1, t1 - t0);
    reader_windows.emplace_back(t0, t1);
    if (traced) {
      traced_latency.Add(t1 - t0);
      tally.Add(query_trace, t1 - t0);
    } else {
      untraced_latency.Add(t1 - t0);
    }
    if (!result.ok() || !result->complete()) {
      ++reader_failed;
      continue;
    }
    if (pinned == nullptr) continue;
    auto after = setup->store->PinSnapshot();
    const bool hit =
        query_trace.cache_hit_exact || query_trace.cache_hit_semantic;
    if (after->epoch() <= pinned->epoch() + 1 &&
        (samples.size() % 2 == 1 || !hit)) {
      samples.push_back({std::move(pinned), std::move(after), query,
                         Sorted(std::move(result->ids)), hit});
    }
  }
  writer_thread.join();
  const double wall = Now() - start;
  const double cpu = SelfCpuSeconds() - cpu0;
  const RegistryDelta delta(before, RegistryNow());
  const double n = static_cast<double>(latency.size());

  report->Set("setup_s", setup_times.Quantile(0.5), "s");
  report->Set("query_p50_ms", timed.SliceQuantile(start, end, 0.5) * 1e3,
              "ms");
  report->Set("query_p99_ms", latency.Quantile(0.99) * 1e3, "ms");
  report->Set("queries_per_s", n / wall, "q/s");
  report->Set("cpu_ms_per_query", cpu * 1e3 / n, "ms");
  report->Set("peak_rss_mb", SelfPeakRssMb(), "MiB");
  report->Set("run.queries", n, "count");
  report->Set("write_p50_ms", writer.write_latency.Quantile(0.5) * 1e3, "ms");
  report->Set("write_p99_ms", writer.write_latency.Quantile(0.99) * 1e3, "ms");
  const double ops = static_cast<double>(writer.ops);
  const double user_bytes = ops * static_cast<double>(kUserBytesPerOp);
  report->Set("write_amp",
              static_cast<double>(writer.wal_bytes + writer.checkpoint_bytes) /
                  user_bytes,
              "ratio");
  report->Set("run.generator_lag_p99_ms", writer.lag.Quantile(0.99) * 1e3,
              "ms");
  if (config.trace) {
    SetEngineLayers(tally, delta, n, wall, cpu, report);
    SetTraceOverhead(traced_latency, untraced_latency, report);
    report->Set("storage.commit_us",
                delta.HistSum("gprq.storage.commit_nanos") * 1e-3 /
                    std::max(1.0, delta.HistCount("gprq.storage.commit_nanos")),
                "us");
    report->Set("storage.fsyncs_per_op",
                delta.Counter("gprq.storage.commits") / ops, "count");
    report->Set("storage.wal_bytes_per_op",
                static_cast<double>(writer.wal_bytes) / ops, "B");
    report->Set("storage.checkpoint_ms",
                writer.checkpoint_seconds.Mean() * 1e3, "ms");
    report->Set("storage.checkpoints",
                static_cast<double>(writer.checkpoint_seconds.size()), "count");
    Samples stalled;
    for (size_t q = 0; q < reader_windows.size(); ++q) {
      for (const auto& [c0, c1] : writer.checkpoint_windows) {
        if (reader_windows[q].first < c1 && reader_windows[q].second > c0) {
          stalled.Add(reader_windows[q].second - reader_windows[q].first);
          break;
        }
      }
    }
    report->Set("storage.checkpoint_stall_ms", stalled.Mean() * 1e3, "ms");
    const double disk =
        static_cast<double>(
            FileBytes(dir + "/" + storage::StorageEngine::kWalFile) +
            FileBytes(dir + "/" + storage::StorageEngine::kCheckpointFile));
    report->Set("storage.space_amp",
                disk / (static_cast<double>(setup->acked.size()) *
                        static_cast<double>(kUserBytesPerOp)),
                "ratio");
  }

  // Oracle: the sampled reader answers against their pinned snapshots.
  const double oracle_start = Now();
  std::vector<Result<bool>> checks(samples.size(), Status::Internal("unrun"));
  {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < kOracleThreads; ++t) {
      pool.emplace_back([&, t] {
        for (size_t s = t; s < samples.size(); s += kOracleThreads) {
          checks[s] = CheckSample(samples[s]);
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
  }
  uint64_t mismatches = 0;
  for (const Result<bool>& check : checks) {
    if (!check.ok()) return check.status();
    if (!*check) ++mismatches;
  }
  const size_t sampled_misses = static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [](const OracleSample& sample) { return !sample.cache_hit; }));
  if (samples.size() < kOracleSamples) {
    report->Invalidate("live-churn oracle took " +
                       std::to_string(samples.size()) + " of " +
                       std::to_string(kOracleSamples) + " samples");
  }
  samples.clear();

  // Recovery: reopen the store; it must hold exactly the acknowledged
  // writes.
  setup->live.reset();
  setup->executor.reset();
  setup->store.reset();
  auto reopened = storage::StorageEngine::Open(dir, ChurnOptions());
  if (!reopened.ok()) return reopened.status();
  uint64_t recovered = 0;
  uint64_t lost = 0;
  (*reopened)->PinSnapshot()->ScanAll([&](const Vector& point, ObjectId id) {
    ++recovered;
    const auto it = setup->acked.find(id);
    if (it == setup->acked.end() || !(it->second == point)) ++lost;
  });
  if (recovered != setup->acked.size() || lost != 0) ++mismatches;
  reopened->reset();
  setup.reset();
  RemoveTree(dir);

  report->attempted += latency.size() + writer.batches;
  report->failed += reader_failed + writer.failed_batches;
  report->mismatches += mismatches;
  Log("live-churn: %.0f reader queries, %llu write batches (%llu ops, %zu "
      "checkpoints), %zu oracle samples (%zu cache misses), %llu recovered "
      "objects; oracle + recovery %.2f s; %llu failed, %llu mismatches",
      n, static_cast<unsigned long long>(writer.batches),
      static_cast<unsigned long long>(writer.ops),
      writer.checkpoint_seconds.size(), checks.size(), sampled_misses,
      static_cast<unsigned long long>(recovered), Now() - oracle_start,
      static_cast<unsigned long long>(reader_failed + writer.failed_batches),
      static_cast<unsigned long long>(mismatches));
  return Status::OK();
}

}  // namespace perfbench
