// Remote-shard coordinator battery. The headline invariant under test:
// remote::RemoteShardedEngine's decided ids are bit-identical (as sets) to
// the in-process shard::ShardedPrqEngine over the same manifest — both in
// the healthy case (every backend answers) and under degradation, where a
// shard whose RPCs are killed contributes *exactly* its routed candidate
// set as undecided and nothing is silently dropped. Plus the channel
// machinery around it: connect retries, the deadline clamp, breaker
// open/half-open recovery against a restarted backend, transient-fault
// retries, and hedged requests against an injected straggler.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/stopwatch.h"
#include "exec/batch_executor.h"
#include "fault/failpoint.h"
#include "index/dataset_file.h"
#include "mc/monte_carlo.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "remote/backend_channel.h"
#include "remote/remote_engine.h"
#include "remote/remote_policy.h"
#include "shard/shard_builder.h"
#include "shard/sharded_engine.h"
#include "workload/generators.h"

namespace gprq::remote {
namespace {

constexpr uint64_t kSamples = 4000;

core::PrqEngine::EvaluatorFactory McFactory() {
  return [](size_t worker) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::MonteCarloEvaluator>(
        mc::MonteCarloOptions{.samples = kSamples, .seed = 7 + worker});
  };
}

std::set<index::ObjectId> AsSet(const std::vector<index::ObjectId>& ids) {
  return {ids.begin(), ids.end()};
}

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

geom::Rect CubeExtent(size_t dim, double side) {
  return geom::Rect(la::Vector(dim, 0.0), la::Vector(dim, side));
}

/// A K-shard deployment: one gprq-server-equivalent (net::Server over a
/// --shard-only ShardedPrqEngine) per shard, an in-process reference
/// engine over the same manifest, and the remote coordinator pointed at
/// the backends. Every executor uses the same evaluator factory, which is
/// what makes the remote and in-process answers comparable bit-for-bit.
struct RemoteRig {
  std::string dir;
  workload::Dataset dataset;
  std::vector<std::unique_ptr<exec::BatchExecutor>> backend_executors;
  std::vector<std::unique_ptr<shard::ShardedPrqEngine>> backend_engines;
  std::vector<std::unique_ptr<net::Server>> backend_servers;
  std::unique_ptr<exec::BatchExecutor> reference_executor;
  std::unique_ptr<shard::ShardedPrqEngine> reference;
  std::unique_ptr<exec::BatchExecutor> coordinator_executor;
  std::unique_ptr<RemoteShardedEngine> coordinator;

  std::string manifest_path() const { return dir + "/shards.manifest"; }

  static RemoteRig Make(size_t shards, size_t dim, size_t n, uint64_t seed,
                        RemoteEngineOptions options = {}) {
    RemoteRig rig;
    rig.dir = TempDir("remote_rig_" + std::to_string(shards) + "_" +
                      std::to_string(dim) + "_" + std::to_string(seed));
    rig.dataset =
        workload::GenerateClustered(n, CubeExtent(dim, 1000.0), 14, 35.0,
                                    seed);
    const std::string points = rig.dir + "/points.gprq";
    auto writer = index::DatasetFileWriter::Create(points, dim);
    EXPECT_TRUE(writer.ok());
    for (const la::Vector& point : rig.dataset.points) {
      EXPECT_TRUE(writer->Append(point).ok());
    }
    EXPECT_TRUE(writer->Finish().ok());
    auto mapped = index::MmapDataset::Open(points);
    EXPECT_TRUE(mapped.ok());
    shard::ShardBuildOptions build;
    build.num_shards = shards;
    auto manifest = shard::BuildShards(*mapped, points, rig.dir, build);
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();

    std::vector<BackendAddress> addresses;
    for (size_t k = 0; k < shards; ++k) {
      auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 2);
      EXPECT_TRUE(executor.ok());
      rig.backend_executors.push_back(std::move(*executor));
      shard::ShardedEngineOptions backend_options;
      backend_options.only_shard = static_cast<int64_t>(k);
      auto engine = shard::ShardedPrqEngine::Open(
          rig.manifest_path(), rig.backend_executors.back().get(),
          backend_options);
      EXPECT_TRUE(engine.ok()) << engine.status().ToString();
      rig.backend_engines.push_back(std::move(*engine));
      auto server = net::Server::Serve(rig.backend_engines.back().get(),
                                       net::ServerOptions());
      EXPECT_TRUE(server.ok()) << server.status().ToString();
      rig.backend_servers.push_back(std::move(*server));
      addresses.push_back(
          BackendAddress{"127.0.0.1", rig.backend_servers.back()->port()});
    }

    auto reference_executor =
        exec::BatchExecutor::CreateDetached(McFactory(), 2);
    EXPECT_TRUE(reference_executor.ok());
    rig.reference_executor = std::move(*reference_executor);
    auto reference = shard::ShardedPrqEngine::Open(
        rig.manifest_path(), rig.reference_executor.get());
    EXPECT_TRUE(reference.ok()) << reference.status().ToString();
    rig.reference = std::move(*reference);

    auto coordinator_executor = exec::BatchExecutor::CreateDetached(
        McFactory(), shards > 0 ? shards : 1);
    EXPECT_TRUE(coordinator_executor.ok());
    rig.coordinator_executor = std::move(*coordinator_executor);
    auto coordinator = RemoteShardedEngine::Open(
        rig.manifest_path(), std::move(addresses),
        rig.coordinator_executor.get(), options);
    EXPECT_TRUE(coordinator.ok()) << coordinator.status().ToString();
    rig.coordinator = std::move(*coordinator);
    return rig;
  }

  core::PrqQuery Query(size_t center, double delta = 25.0,
                       double theta = 0.01) const {
    const size_t dim = dataset.dim;
    la::Matrix cov = dim == 2 ? workload::PaperCovariance2D(10.0)
                              : la::Matrix::Identity(dim) * 25.0;
    auto g = core::GaussianDistribution::Create(
        dataset.points[center % dataset.size()], std::move(cov));
    EXPECT_TRUE(g.ok());
    return core::PrqQuery{std::move(*g), delta, theta};
  }
};

class FailpointGuard {
 public:
  ~FailpointGuard() { fault::FailpointRegistry::Global().DisarmAll(); }
};

// -- channel building blocks -------------------------------------------------

TEST(BackendAddressTest, ParsesAndRejects) {
  auto a = ParseBackendAddress("10.0.0.7:7709");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->host, "10.0.0.7");
  EXPECT_EQ(a->port, 7709);

  auto loopback = ParseBackendAddress(":80");
  ASSERT_TRUE(loopback.ok());
  EXPECT_EQ(loopback->host, "127.0.0.1");

  for (const char* bad : {"nohost", "h:", "h:0", "h:99999", "h:12x"}) {
    EXPECT_FALSE(ParseBackendAddress(bad).ok()) << bad;
  }
}

TEST(RemotePolicyTest, FromSpecRoundTripAndRejects) {
  auto policy = RemotePolicy::FromSpec(
      "rpc_timeout_ms=250; max_retries=4; retry_base_ms=5; hedge=off; "
      "breaker_failures=3; breaker_open_ms=50; validate_points=off");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_DOUBLE_EQ(policy->rpc_timeout_seconds, 0.25);
  EXPECT_EQ(policy->max_retries, 4);
  EXPECT_FALSE(policy->hedge);
  EXPECT_EQ(policy->breaker.failure_threshold, 3);
  EXPECT_FALSE(policy->validate_points);

  EXPECT_TRUE(RemotePolicy::FromSpec("").ok());  // defaults
  EXPECT_FALSE(RemotePolicy::FromSpec("bogus_key=1").ok());
  EXPECT_FALSE(RemotePolicy::FromSpec("hedge=maybe").ok());
  EXPECT_FALSE(RemotePolicy::FromSpec("rpc_timeout_ms=0").ok());
  EXPECT_FALSE(RemotePolicy::FromSpec("max_retries").ok());
}

TEST(LatencyWindowTest, QuantileArmsOnlyWithEnoughSamples) {
  LatencyWindow window;
  EXPECT_LT(window.Quantile(0.95, 4), 0.0);
  window.Record(0.010);
  window.Record(0.012);
  window.Record(0.011);
  EXPECT_LT(window.Quantile(0.95, 4), 0.0) << "3 < min_samples";
  window.Record(0.500);
  const double p95 = window.Quantile(0.95, 4);
  EXPECT_GE(p95, 0.012);
  EXPECT_LE(p95, 0.500);
  const double p50 = window.Quantile(0.50, 4);
  EXPECT_LE(p50, 0.012);
  // The ring holds the most recent 128: after flooding with a new level,
  // old samples age out.
  for (int i = 0; i < 200; ++i) window.Record(1.0);
  EXPECT_DOUBLE_EQ(window.Quantile(0.50, 4), 1.0);
}

// -- healthy differential: coordinator == in-process, K x d -----------------

TEST(RemoteDifferential, HealthyAcrossShardCounts) {
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    RemoteRig rig = RemoteRig::Make(shards, 2, 1200, 31 + shards);
    ASSERT_NE(rig.coordinator, nullptr);
    size_t nonempty = 0;
    for (size_t center = 0; center < 5; ++center) {
      const core::PrqQuery query = rig.Query(center * 131);
      core::PrqOptions options;
      auto direct = rig.reference->ExecuteBounded(query, options);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      obs::QueryTrace trace;
      auto viaRpc =
          rig.coordinator->ExecuteBounded(query, options, nullptr, &trace);
      ASSERT_TRUE(viaRpc.ok()) << viaRpc.status().ToString();
      EXPECT_TRUE(viaRpc->status.ok()) << viaRpc->status.ToString();
      EXPECT_EQ(AsSet(viaRpc->ids), AsSet(direct->ids))
          << "K=" << shards << " center=" << center;
      EXPECT_EQ(AsSet(viaRpc->undecided), AsSet(direct->undecided));
      EXPECT_EQ(trace.shards_degraded, 0u);
      EXPECT_TRUE(trace.remote_shard_errors.empty());
      nonempty += direct->ids.empty() ? 0 : 1;
    }
    EXPECT_GT(nonempty, 0u) << "K=" << shards << ": every probe was empty";
  }
}

TEST(RemoteDifferential, HealthyAcrossDimensions) {
  for (const size_t dim : {size_t{3}, size_t{9}}) {
    RemoteRig rig = RemoteRig::Make(2, dim, 800, 53 + dim);
    ASSERT_NE(rig.coordinator, nullptr);
    size_t nonempty = 0;
    for (size_t center = 0; center < 4; ++center) {
      const core::PrqQuery query = rig.Query(center * 97);
      core::PrqOptions options;
      auto direct = rig.reference->ExecuteBounded(query, options);
      ASSERT_TRUE(direct.ok());
      auto viaRpc = rig.coordinator->ExecuteBounded(query, options);
      ASSERT_TRUE(viaRpc.ok()) << viaRpc.status().ToString();
      EXPECT_TRUE(viaRpc->status.ok()) << viaRpc->status.ToString();
      EXPECT_EQ(AsSet(viaRpc->ids), AsSet(direct->ids)) << "d=" << dim;
      EXPECT_EQ(AsSet(viaRpc->undecided), AsSet(direct->undecided));
      nonempty += direct->ids.empty() ? 0 : 1;
    }
    EXPECT_GT(nonempty, 0u) << "d=" << dim << ": every probe was empty";
  }
}

TEST(RemoteDifferential, RoutingParityWithInProcessEngine) {
  RemoteRig rig = RemoteRig::Make(4, 2, 1500, 71);
  for (size_t center = 0; center < 8; ++center) {
    const core::PrqQuery query = rig.Query(center * 211);
    core::PrqOptions options;
    auto in_process = rig.reference->Route(query, options);
    auto coordinated = rig.coordinator->Route(query, options);
    ASSERT_TRUE(in_process.ok());
    ASSERT_TRUE(coordinated.ok());
    EXPECT_EQ(*coordinated, *in_process) << "center=" << center;
  }
}

// -- degradation: a killed shard's candidates end up undecided, exactly ------

TEST(RemoteDegradation, KilledShardIsExactlyHealthyMinusThatShard) {
  if (!fault::kEnabled) GTEST_SKIP() << "needs remote.rpc failpoints";
  RemoteEngineOptions options;
  options.policy.max_retries = 1;
  options.policy.retry_base_seconds = 0.001;
  RemoteRig rig = RemoteRig::Make(4, 2, 2000, 83, options);

  // Find a probe routed to at least 2 shards so "healthy minus one shard"
  // is a real subtraction.
  core::PrqQuery query = rig.Query(0, /*delta=*/60.0);
  std::vector<size_t> routed;
  for (size_t center = 0; center < 32; ++center) {
    query = rig.Query(center * 67, /*delta=*/60.0);
    auto route = rig.reference->Route(query, core::PrqOptions());
    ASSERT_TRUE(route.ok());
    if (route->size() >= 2) {
      routed = *route;
      break;
    }
  }
  ASSERT_GE(routed.size(), 2u) << "no probe spans 2+ shards";
  const size_t victim = routed.front();

  core::PrqOptions prq_options;
  auto healthy = rig.reference->ExecuteBounded(query, prq_options);
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(healthy->complete());
  ASSERT_FALSE(healthy->ids.empty()) << "probe too selective to test";

  FailpointGuard guard;
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("remote.rpc.send." + std::to_string(victim) +
                               "=error(io)")
                  .ok());
  obs::QueryTrace trace;
  auto degraded =
      rig.coordinator->ExecuteBounded(query, prq_options, nullptr, &trace);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  // Explicitly degraded: non-OK status, an undecided remainder, the shard
  // recorded with its failure code.
  EXPECT_FALSE(degraded->status.ok());
  EXPECT_FALSE(degraded->undecided.empty());
  EXPECT_EQ(trace.shards_degraded, 1u);
  ASSERT_EQ(trace.remote_shard_errors.size(), 1u);
  EXPECT_EQ(trace.remote_shard_errors[0].first,
            static_cast<uint32_t>(victim));
  EXPECT_EQ(trace.remote_shard_errors[0].second,
            static_cast<uint8_t>(StatusCode::kIoError));

  // Exactness: decided ids are the healthy answer minus the victim shard's
  // contribution; every removed qualifier appears in undecided; no id is
  // both decided and undecided; nothing else leaked in.
  const auto healthy_ids = AsSet(healthy->ids);
  const auto degraded_ids = AsSet(degraded->ids);
  const auto undecided = AsSet(degraded->undecided);
  for (const index::ObjectId id : degraded_ids) {
    EXPECT_TRUE(healthy_ids.count(id)) << "fabricated qualifier " << id;
    EXPECT_FALSE(undecided.count(id)) << id << " both decided and undecided";
  }
  std::set<index::ObjectId> healthy_minus_victim;
  for (const index::ObjectId id : healthy_ids) {
    if (undecided.count(id) == 0) healthy_minus_victim.insert(id);
  }
  EXPECT_EQ(degraded_ids, healthy_minus_victim);
  for (const index::ObjectId id : healthy_ids) {
    EXPECT_TRUE(degraded_ids.count(id) || undecided.count(id))
        << "qualifier " << id << " silently dropped";
  }
  EXPECT_GT(trace.remote_retries, 0u) << "the kill should have been retried";
}

TEST(RemoteDegradation, FallbackDisabledStillReportsTheGap) {
  if (!fault::kEnabled) GTEST_SKIP() << "needs remote.rpc failpoints";
  RemoteEngineOptions options;
  options.local_fallback = false;
  options.policy.max_retries = 0;
  RemoteRig rig = RemoteRig::Make(2, 2, 800, 97, options);
  const core::PrqQuery query = rig.Query(13, /*delta=*/60.0);

  FailpointGuard guard;
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("remote.rpc.send=error(io)")
                  .ok());
  auto degraded = rig.coordinator->ExecuteBounded(query, core::PrqOptions());
  ASSERT_TRUE(degraded.ok());
  EXPECT_FALSE(degraded->status.ok());
  EXPECT_NE(degraded->status.message().find("not enumerated"),
            std::string::npos)
      << degraded->status.ToString();
}

TEST(RemoteDegradation, TransientFaultRetriesToFullAnswer) {
  if (!fault::kEnabled) GTEST_SKIP() << "needs remote.rpc failpoints";
  RemoteEngineOptions options;
  options.policy.retry_base_seconds = 0.001;
  RemoteRig rig = RemoteRig::Make(2, 2, 1000, 101, options);
  const core::PrqQuery query = rig.Query(29, /*delta=*/60.0);
  auto healthy = rig.reference->ExecuteBounded(query, core::PrqOptions());
  ASSERT_TRUE(healthy.ok());

  FailpointGuard guard;
  // Exactly one injected failure (the generic site, so whichever routed
  // shard evaluates it first eats it): the retry must succeed and the
  // answer must be the complete healthy one.
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("remote.rpc.send=error(io,max=1)")
                  .ok());
  obs::QueryTrace trace;
  auto retried =
      rig.coordinator->ExecuteBounded(query, core::PrqOptions(), nullptr,
                                      &trace);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_GE(fault::FailpointRegistry::Global()
                .Stats("remote.rpc.send")
                .triggers,
            1u)
      << "the injected fault never fired";
  EXPECT_TRUE(retried->status.ok()) << retried->status.ToString();
  EXPECT_EQ(AsSet(retried->ids), AsSet(healthy->ids));
  EXPECT_EQ(trace.shards_degraded, 0u);
  EXPECT_GE(trace.remote_retries, 1u);
}

// -- breaker: dead backend fails fast, recovers through half-open ------------

TEST(RemoteDegradation, BreakerOpensOnDeadBackendAndRecovers) {
  RemoteEngineOptions options;
  options.policy.max_retries = 0;
  options.policy.connect_timeout_seconds = 0.25;
  options.policy.breaker.failure_threshold = 2;
  options.policy.breaker.open_seconds = 0.05;
  RemoteRig rig = RemoteRig::Make(2, 2, 1000, 113, options);
  const core::PrqQuery query = rig.Query(17, /*delta=*/60.0);
  auto healthy = rig.reference->ExecuteBounded(query, core::PrqOptions());
  ASSERT_TRUE(healthy.ok());
  auto routed = rig.reference->Route(query, core::PrqOptions());
  ASSERT_TRUE(routed.ok());
  ASSERT_EQ(routed->size(), 2u) << "probe must span both shards";

  // Kill backend 1 outright (connection refused from here on).
  const uint16_t dead_port = rig.backend_servers[1]->port();
  rig.backend_servers[1]->Shutdown();

  // Failures accumulate to the threshold...
  for (int i = 0; i < 2; ++i) {
    auto degraded = rig.coordinator->ExecuteBounded(query, core::PrqOptions());
    ASSERT_TRUE(degraded.ok());
    EXPECT_FALSE(degraded->status.ok());
    EXPECT_FALSE(degraded->undecided.empty());
  }
  EXPECT_EQ(rig.coordinator->channel(1).breaker().state(),
            common::CircuitBreaker::State::kOpen);

  // ...and while open, the shard degrades without touching the network:
  // the query is answered (partial) essentially instantly.
  Stopwatch watch;
  auto fast = rig.coordinator->ExecuteBounded(query, core::PrqOptions());
  ASSERT_TRUE(fast.ok());
  EXPECT_FALSE(fast->status.ok());
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);

  // Restart the backend on the same port; after the open interval a
  // half-open probe goes through, and the answer returns to the healthy
  // set exactly.
  net::ServerOptions revive;
  revive.port = dead_port;
  auto revived = net::Server::Serve(rig.backend_engines[1].get(), revive);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  rig.backend_servers[1] = std::move(*revived);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  auto recovered = Status::OK();
  Result<core::PrqResult> back = Status::Internal("unset");
  for (int attempt = 0; attempt < 10; ++attempt) {
    back = rig.coordinator->ExecuteBounded(query, core::PrqOptions());
    ASSERT_TRUE(back.ok());
    if (back->status.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  ASSERT_TRUE(back->status.ok()) << back->status.ToString();
  EXPECT_EQ(AsSet(back->ids), AsSet(healthy->ids));
  EXPECT_TRUE(back->undecided.empty());
  EXPECT_EQ(rig.coordinator->channel(1).breaker().state(),
            common::CircuitBreaker::State::kClosed);
}

// -- hedging: a straggling primary triggers a duplicate request --------------

TEST(RemoteDegradation, StragglerTriggersHedge) {
  if (!fault::kEnabled) GTEST_SKIP() << "needs remote.rpc failpoints";
  RemoteEngineOptions options;
  options.policy.hedge_min_samples = 1;
  options.policy.hedge_min_seconds = 0.01;
  options.policy.hedge_multiplier = 1.0;
  RemoteRig rig = RemoteRig::Make(1, 2, 800, 127, options);
  const core::PrqQuery query = rig.Query(7, /*delta=*/60.0);

  // Warm the latency window so the hedge delay arms. The delay is
  // p95-based, and the warm RPC includes connect + HELLO + evaluation, so
  // read the armed value back and stall comfortably past it.
  auto warm = rig.coordinator->ExecuteBounded(query, core::PrqOptions());
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->status.ok());
  const double hedge_delay = rig.coordinator->channel(0).HedgeDelaySeconds();
  ASSERT_GE(hedge_delay, 0.0);

  FailpointGuard guard;
  // Stall one attempt's receive path past the hedge delay. The hedge goes
  // out on a second connection and the answer is still the healthy one.
  const auto stall_micros =
      static_cast<uint64_t>((hedge_delay + 0.25) * 1e6);
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("remote.rpc.recv.0=delay(" +
                               std::to_string(stall_micros) + ",max=1)")
                  .ok());
  obs::QueryTrace trace;
  auto hedged = rig.coordinator->ExecuteBounded(query, core::PrqOptions(),
                                                nullptr, &trace);
  ASSERT_TRUE(hedged.ok()) << hedged.status().ToString();
  ASSERT_GE(fault::FailpointRegistry::Global()
                .Stats("remote.rpc.recv.0")
                .triggers,
            1u)
      << "the injected stall never fired";
  EXPECT_TRUE(hedged->status.ok()) << hedged->status.ToString();
  EXPECT_GE(trace.remote_hedges, 1u) << "no hedge was issued";
  EXPECT_EQ(AsSet(hedged->ids), AsSet(warm->ids));
  EXPECT_EQ(trace.shards_degraded, 0u);
}

// -- deadlines: a mid-scatter expiry returns promptly and soundly ------------

TEST(RemoteDegradation, MidScatterDeadlineReturnsPromptly) {
  if (!fault::kEnabled) GTEST_SKIP() << "needs remote.rpc failpoints";
  RemoteEngineOptions options;
  options.policy.max_retries = 0;
  RemoteRig rig = RemoteRig::Make(2, 2, 1000, 139, options);
  const core::PrqQuery query = rig.Query(41, /*delta=*/60.0);

  FailpointGuard guard;
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("remote.rpc.recv=delay(300000,max=2)")
                  .ok());
  core::PrqOptions bounded;
  bounded.control.deadline = common::Deadline::After(0.05);
  Stopwatch watch;
  auto result = rig.coordinator->ExecuteBounded(query, bounded);
  const double elapsed = watch.ElapsedSeconds();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->status.ok()) << "expired run must say so";
  EXPECT_LT(elapsed, 3.0) << "hung long past the deadline";
}

// -- the coordinator as a core::QueryBackend (gprq_coordinator's shape) ------

TEST(RemoteServing, CoordinatorBehindServerEndToEnd) {
  RemoteRig rig = RemoteRig::Make(2, 2, 1200, 151);
  obs::Counter* subqueries =
      obs::MetricRegistry::Global().GetCounter("gprq.net.server.subqueries");
  const uint64_t subqueries_before = subqueries->Value();

  auto server =
      net::Server::Serve(rig.coordinator.get(), net::ServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE((*server)->info().sharded);
  EXPECT_EQ((*server)->info().num_shards, 2u);
  EXPECT_EQ((*server)->info().points, rig.dataset.size());

  auto client = net::Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  size_t nonempty = 0;
  for (size_t center = 0; center < 4; ++center) {
    const core::PrqQuery query = rig.Query(center * 173);
    core::PrqOptions prq_options;
    auto direct = rig.reference->ExecuteBounded(query, prq_options);
    ASSERT_TRUE(direct.ok());
    auto wire = (*client)->Query(query, prq_options);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_FALSE(wire->shed);
    EXPECT_TRUE(wire->result.status.ok()) << wire->result.status.ToString();
    EXPECT_EQ(AsSet(wire->result.ids), AsSet(direct->ids));
    EXPECT_EQ(AsSet(wire->result.undecided), AsSet(direct->undecided));
    nonempty += direct->ids.empty() ? 0 : 1;
  }
  EXPECT_GT(nonempty, 0u);
  // The coordinator marked its scatter frames as subqueries; the shard
  // backends counted them (all servers share this process's registry).
  EXPECT_GT(subqueries->Value(), subqueries_before);
}

// -- satellite: the client clamps the wire budget to its request timeout ----

TEST(RemoteServing, ClientClampsWireDeadlineToRequestTimeout) {
  RemoteRig rig = RemoteRig::Make(1, 2, 600, 163);
  auto server = net::Server::Serve(rig.backend_engines[0].get(),
                                   net::ServerOptions());
  ASSERT_TRUE(server.ok());

  // Generous enough that a sanitizer-slowed query still finishes, but
  // far below the query's own 30 s ask so the clamp is unambiguous.
  net::ClientOptions tight;
  tight.request_timeout_seconds = 5.0;
  auto client =
      net::Client::Connect("127.0.0.1", (*server)->port(), tight);
  ASSERT_TRUE(client.ok());

  // The query asks for 30 s; the client may only wait 5 s, so the budget
  // that crosses the wire must be the clamped one — the server-side gauge
  // records what it received.
  core::PrqOptions options;
  options.control.deadline = common::Deadline::After(30.0);
  auto wire = (*client)->Query(rig.Query(3), options);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  obs::Gauge* budget = obs::MetricRegistry::Global().GetGauge(
      "gprq.net.server.last_deadline_budget_micros");
  EXPECT_GT(budget->Value(), 0.0);
  EXPECT_LE(budget->Value(), 5000001.0)
      << "wire budget was not clamped to request_timeout";
}

// -- satellite: connect retries against a late-opening port ------------------

TEST(ConnectRetryTest, WaitsForALateOpeningPort) {
  RemoteRig rig = RemoteRig::Make(1, 2, 400, 179);

  // Reserve a port, release it, and only bind the real server there after
  // a delay — the client's connect retries must ride it out.
  uint16_t port = 0;
  {
    auto probe = net::Server::Serve(rig.backend_engines[0].get(),
                                    net::ServerOptions());
    ASSERT_TRUE(probe.ok());
    port = (*probe)->port();
  }
  std::unique_ptr<net::Server> late;
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    net::ServerOptions bind;
    bind.port = port;
    auto served = net::Server::Serve(rig.backend_engines[0].get(), bind);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    late = std::move(*served);
  });

  net::ClientOptions retrying;
  retrying.connect_timeout_seconds = 0.1;
  retrying.max_connect_retries = 20;
  retrying.connect_retry_base_seconds = 0.02;
  retrying.connect_retry_cap_seconds = 0.1;
  auto client = net::Client::Connect("127.0.0.1", port, retrying);
  opener.join();
  ASSERT_TRUE(client.ok())
      << "connect retries gave up: " << client.status().ToString();
  EXPECT_EQ((*client)->server_info().points, rig.dataset.size());
}

TEST(ConnectRetryTest, FailsFastWithoutRetries) {
  // Reserve-and-release: nothing listens on the port.
  uint16_t port = 0;
  {
    RemoteRig rig = RemoteRig::Make(1, 2, 300, 191);
    auto probe = net::Server::Serve(rig.backend_engines[0].get(),
                                    net::ServerOptions());
    ASSERT_TRUE(probe.ok());
    port = (*probe)->port();
  }
  net::ClientOptions once;
  once.connect_timeout_seconds = 0.2;
  Stopwatch watch;
  auto client = net::Client::Connect("127.0.0.1", port, once);
  EXPECT_FALSE(client.ok());
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
}

}  // namespace
}  // namespace gprq::remote
