// End-to-end differential battery: a query sent over the GPRQ/1 wire must
// produce exactly the answer the in-process API produces. Phase-3 sample
// pools are fingerprint-seeded (a pure function of evaluator seed and
// query), so resubmitting the same query to the same executor is
// bit-stable — wire vs direct on ONE executor must be set-identical, for
// d ∈ {2, 3, 9}, for deadline-degraded partials (the undecided remainder
// survives serialization), and for a K=4 sharded deployment.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "core/engine.h"
#include "exec/batch_executor.h"
#include "fault/failpoint.h"
#include "index/dataset_file.h"
#include "index/str_bulk_load.h"
#include "mc/monte_carlo.h"
#include "net/client.h"
#include "net/server.h"
#include "shard/shard_builder.h"
#include "shard/shard_manifest.h"
#include "shard/sharded_engine.h"
#include "workload/generators.h"

namespace gprq::net {
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
  const std::string dir =
      name.front() == '/' ? name : ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

geom::Rect CubeExtent(size_t dim, double side) {
  return geom::Rect(la::Vector(dim, 0.0), la::Vector(dim, side));
}

/// A d-dimensional backend behind a live server plus a connected client.
struct Rig {
  workload::Dataset dataset;
  std::unique_ptr<index::RStarTree> tree;
  std::unique_ptr<core::PrqEngine> engine;
  std::unique_ptr<exec::BatchExecutor> executor;
  std::unique_ptr<Server> server;
  std::unique_ptr<Client> client;

  static Rig Make(size_t dim, size_t n, uint64_t seed) {
    Rig rig;
    rig.dataset = workload::GenerateClustered(n, CubeExtent(dim, 1000.0), 14,
                                              35.0, seed);
    auto tree = index::StrBulkLoader::Load(dim, rig.dataset.points);
    EXPECT_TRUE(tree.ok());
    rig.tree = std::make_unique<index::RStarTree>(std::move(*tree));
    rig.engine = std::make_unique<core::PrqEngine>(rig.tree.get());
    auto executor =
        exec::BatchExecutor::Create(rig.engine.get(), McFactory(), 2);
    EXPECT_TRUE(executor.ok());
    rig.executor = std::move(*executor);
    auto server = Server::Serve(rig.executor.get(), ServerOptions());
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    rig.server = std::move(*server);
    auto client = Client::Connect("127.0.0.1", rig.server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    rig.client = std::move(*client);
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

// -- wire == in-process, across dimensionalities -----------------------------

TEST(NetDifferential, WireSetIdenticalToSubmitBounded) {
  for (const size_t dim : {size_t{2}, size_t{3}, size_t{9}}) {
    Rig rig = Rig::Make(dim, 1500, 31 + dim);
    ASSERT_NE(rig.client, nullptr);

    size_t nonempty = 0;
    for (size_t center = 0; center < 8; ++center) {
      const core::PrqQuery query = rig.Query(center * 97);
      core::PrqOptions options;

      auto direct = rig.executor->SubmitBounded(query, options);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      auto wire = rig.client->Query(query, options);
      ASSERT_TRUE(wire.ok()) << wire.status().ToString();
      EXPECT_FALSE(wire->shed);
      EXPECT_TRUE(wire->result.status.ok())
          << wire->result.status.ToString();

      EXPECT_EQ(AsSet(wire->result.ids), AsSet(direct->ids))
          << "d=" << dim << " center=" << center;
      EXPECT_EQ(AsSet(wire->result.undecided), AsSet(direct->undecided));
      nonempty += direct->ids.empty() ? 0 : 1;
    }
    // The differential only means something if the answers have mass.
    EXPECT_GT(nonempty, 0u) << "d=" << dim << ": every probe came back empty";
  }
}

TEST(NetDifferential, OptionsCrossTheWire) {
  Rig rig = Rig::Make(2, 1500, 47);
  const core::PrqQuery query = rig.Query(11);

  core::PrqOptions options;
  options.strategies = core::kStrategyRR | core::kStrategyBF;
  options.use_catalogs = false;
  options.priority = core::kPriorityCritical;
  options.pool_variant = mc::PoolVariant::kHalton;

  auto direct = rig.executor->SubmitBounded(query, options);
  ASSERT_TRUE(direct.ok());
  auto wire = rig.client->Query(query, options);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(AsSet(wire->result.ids), AsSet(direct->ids));
  EXPECT_EQ(AsSet(wire->result.undecided), AsSet(direct->undecided));
}

// -- deadline-degraded partials cross the wire soundly -----------------------

TEST(NetDifferential, DeadlinePartialSurvivesSerialization) {
  if (!fault::kEnabled) GTEST_SKIP() << "needs the delay failpoint";
  Rig rig = Rig::Make(2, 3000, 59);

  // The reference: the full, unbounded answer (computed before the
  // failpoint slows Phase 3 down).
  const core::PrqQuery query = rig.Query(5, /*delta=*/60.0);
  core::PrqOptions unbounded;
  auto full = rig.executor->SubmitBounded(query, unbounded);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->ids.size(), 10u) << "probe query too selective";

  // 400 ms per Phase-3 chunk against a 100 ms budget: the deadline fires
  // between chunks, so the wire answer must be a sound partial with an
  // explicit undecided remainder.
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("exec.batch_executor.chunk=delay(400000)")
                  .ok());
  core::PrqOptions bounded;
  bounded.control.deadline = common::Deadline::After(0.1);
  auto wire = rig.client->Query(query, bounded);
  fault::FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_FALSE(wire->shed);

  // Degraded, not fabricated: the status says so, the undecided remainder
  // is explicit, and soundness holds against the full answer.
  EXPECT_FALSE(wire->result.complete());
  EXPECT_FALSE(wire->result.status.ok());
  EXPECT_FALSE(wire->result.undecided.empty())
      << "undecided remainder was lost in serialization";

  const auto full_ids = AsSet(full->ids);
  const auto wire_ids = AsSet(wire->result.ids);
  for (const index::ObjectId id : wire_ids) {
    EXPECT_TRUE(full_ids.count(id)) << "wire decided a non-qualifier " << id;
  }
  auto decided_or_undecided = wire_ids;
  for (const index::ObjectId id : wire->result.undecided) {
    decided_or_undecided.insert(id);
  }
  for (const index::ObjectId id : full_ids) {
    EXPECT_TRUE(decided_or_undecided.count(id))
        << "qualifier " << id << " silently dropped on the wire";
  }
}

// -- sharded backend: wire == direct ExecuteBounded, K=4 ---------------------

TEST(NetDifferential, ShardedWireSetIdenticalToDirect) {
  const std::string dir = TempDir("net_e2e_shards");
  const auto dataset = workload::GenerateClustered(
      3000, CubeExtent(2, 1000.0), 14, 35.0, 31);

  const std::string path = dir + "/points.gprq";
  auto writer = index::DatasetFileWriter::Create(path, 2);
  ASSERT_TRUE(writer.ok());
  for (const la::Vector& point : dataset.points) {
    ASSERT_TRUE(writer->Append(point).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());

  auto mapped = index::MmapDataset::Open(path);
  ASSERT_TRUE(mapped.ok());
  shard::ShardBuildOptions build;
  build.num_shards = 4;
  auto manifest = shard::BuildShards(*mapped, path, dir, build);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 2);
  ASSERT_TRUE(executor.ok());
  auto sharded =
      shard::ShardedPrqEngine::Open(dir + "/shards.manifest", executor->get());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  auto server = Server::Serve(sharded->get(), ServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ((*server)->info().sharded, true);
  EXPECT_EQ((*server)->info().num_shards, 4u);

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->server_info().sharded, 1);
  EXPECT_EQ((*client)->server_info().num_shards, 4u);
  EXPECT_EQ((*client)->server_info().points, dataset.size());

  size_t nonempty = 0;
  for (size_t center = 0; center < 8; ++center) {
    auto g = core::GaussianDistribution::Create(
        dataset.points[(center * 131) % dataset.size()],
        workload::PaperCovariance2D(10.0));
    ASSERT_TRUE(g.ok());
    const core::PrqQuery query{std::move(*g), 25.0, 0.01};
    core::PrqOptions options;

    auto direct = (*sharded)->ExecuteBounded(query, options);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto wire = (*client)->Query(query, options);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_TRUE(wire->result.status.ok());

    EXPECT_EQ(AsSet(wire->result.ids), AsSet(direct->ids))
        << "K=4 center=" << center;
    EXPECT_EQ(AsSet(wire->result.undecided), AsSet(direct->undecided));
    nonempty += direct->ids.empty() ? 0 : 1;
  }
  EXPECT_GT(nonempty, 0u) << "every sharded probe came back empty";
}

}  // namespace
}  // namespace gprq::net
