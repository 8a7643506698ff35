// gprq command-line tool: generate datasets, build/query tree snapshots,
// run probabilistic range queries and PNN from the shell.
//
// Examples:
//   gprq_cli generate --dataset tiger --out points.csv
//   gprq_cli generate --dataset uniform --n 10000 --dim 3 --out u.csv
//   gprq_cli snapshot --data points.csv --out tree.pages --page-size 1024
//   gprq_cli query --data points.csv --q 500,500 --gamma 10
//       --delta 25 --theta 0.01 --strategy ALL --evaluator imhof
//   gprq_cli query --data points.csv --q 500,500 --stddev 8 --delta 25
//       --theta 0.01 --evaluator adaptive --samples 50000
//   gprq_cli pnn --data points.csv --q 500,500 --gamma 10 --samples 20000
//   gprq_cli estimate --data points.csv --q 500,500 --gamma 10
//       --delta 25 --theta 0.01

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/flags.h"
#include "core/engine.h"
#include "net/client.h"
#include "exec/batch_executor.h"
#include "experiments/histogram.h"
#include "experiments/pnn.h"
#include "fault/failpoint.h"
#include "index/paged_tree.h"
#include "index/str_bulk_load.h"
#include "shard/sharded_engine.h"
#include "storage/live_engine.h"
#include "storage/storage_engine.h"
#include "mc/adaptive_monte_carlo.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "workload/corel_synthetic.h"
#include "workload/csv.h"
#include "workload/generators.h"
#include "workload/tiger_synthetic.h"

namespace gprq {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: gprq_cli <command> [--flags]\n"
      "commands:\n"
      "  generate  --dataset tiger|corel|uniform|clustered --out FILE\n"
      "            [--n N] [--dim D] [--seed S] [--extent E] [--clusters C]\n"
      "  snapshot  --data FILE.csv --out FILE.pages [--page-size 4096]\n"
      "  query     --data FILE.csv --q x,y,... --delta D --theta T\n"
      "            [--gamma G | --stddev S | --cov a,b,...] "
      "[--strategy RR|OR|BF|RR+BF|...|ALL]\n"
      "            [--evaluator imhof|mc|adaptive] [--samples N] "
      "[--threads K]\n"
      "            [--qmc]   (randomized-Halton Phase-3 sample pools)\n"
      "            [--shards DIR]\n"
      "            (query a sharded deployment built by `gprq_convert\n"
      "             shard`: DIR holds shards.manifest + shard_<k>.tree;\n"
      "             Phases 1-2 run shard-parallel over --threads workers\n"
      "             on only the shards whose MBR meets the search box)\n"
      "            [--overload-policy SPEC] [--priority 0|1|2]\n"
      "            (SPEC is 'key=value;...', see exec/overload.h; an empty\n"
      "             SPEC uses the defaults. The query is then submitted\n"
      "             through admission control and may be shed with a\n"
      "             retry-after hint or answered under brownout.)\n"
      "            [--result-cache [--theta2 T2]]\n"
      "            (runs the query twice through a cache-enabled executor\n"
      "             — the repeat is an exact cache hit — and, with --theta2\n"
      "             >= theta, a third time at the narrower threshold, served\n"
      "             from the cached answer by containment.)\n"
      "  pnn       --data FILE.csv --q x,y,... [--gamma G | --stddev S]\n"
      "            [--samples N]\n"
      "  estimate  --data FILE.csv --q x,y,... --delta D --theta T\n"
      "            [--gamma G | --stddev S] [--cells N]\n"
      "  remote    --host H --port P --q x,y,... --delta D --theta T\n"
      "            [--gamma G | --stddev S | --cov a,b,...]\n"
      "            [--strategy ...] [--qmc] [--priority 0|1|2]\n"
      "            [--deadline-ms N] [--retries R] [--stats json|prom]\n"
      "            (run the query against a gprq_server over the GPRQ/1\n"
      "             wire protocol; RETRY_AFTER sheds are retried up to R\n"
      "             times, honoring the server's backoff hint)\n"
      "            [--print-ids]        (sorted 'IDS:'/'UNDECIDED:' lines,\n"
      "             for script-level set comparison)\n"
      "            [--expect-complete]  (exit 1 unless the answer is\n"
      "             complete: OK status and no undecided)\n"
      "            [--expect-degraded]  (exit 1 unless the answer is an\n"
      "             explicit partial: non-OK status with undecided ids)\n"
      "  list-failpoints\n"
      "            print the failpoint sites compiled into this binary and\n"
      "            any currently armed configurations (GPRQ_FAILPOINTS)\n"
      "  storage   --dir D --init --dim N [--page-size 4096]\n"
      "            (initialise a mutable WAL-backed storage directory)\n"
      "            --dir D --stats | --checkpoint | --verify\n"
      "            --dir D --q x,y,... --delta D --theta T\n"
      "            [--gamma G | --stddev S | --cov ...] [--threads K]\n"
      "            [--evaluator imhof|mc|adaptive] [--samples N]\n"
      "            (PRQ against the live tree via an epoch snapshot)\n"
      "  insert    --dir D (--p x,y,... --id K | --data FILE.csv)\n"
      "            (durably insert one point, or bulk-load a CSV; every\n"
      "             operation is WAL-logged and fsynced before it is\n"
      "             acknowledged)\n"
      "  delete    --dir D --p x,y,... --id K\n"
      "            (durably delete one exact (point, id) entry)\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<la::Matrix> CovarianceFromFlags(const FlagSet& flags, size_t dim) {
  if (flags.Has("cov")) {
    auto entries = flags.GetDoubleList("cov");
    if (!entries.ok()) return entries.status();
    if (entries->size() != dim * dim) {
      return Status::InvalidArgument("--cov needs dim*dim entries");
    }
    la::Matrix cov(dim, dim);
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j < dim; ++j) cov(i, j) = (*entries)[i * dim + j];
    }
    return cov;
  }
  if (flags.Has("gamma")) {
    if (dim != 2) {
      return Status::InvalidArgument("--gamma is the paper's 2-D shape");
    }
    auto gamma = flags.GetDouble("gamma", 10.0);
    if (!gamma.ok()) return gamma.status();
    return workload::PaperCovariance2D(*gamma);
  }
  auto stddev = flags.GetDouble("stddev", 1.0);
  if (!stddev.ok()) return stddev.status();
  return la::Matrix::Identity(dim) * (*stddev * *stddev);
}

Result<core::StrategyMask> StrategyFromFlags(const FlagSet& flags) {
  const std::string name = flags.GetString("strategy", "ALL");
  if (name == "ALL") return core::kStrategyAll;
  core::StrategyMask mask = 0;
  size_t start = 0;
  while (start <= name.size()) {
    const size_t plus = name.find('+', start);
    const std::string part = name.substr(
        start, plus == std::string::npos ? std::string::npos : plus - start);
    if (part == "RR") mask |= core::kStrategyRR;
    else if (part == "OR") mask |= core::kStrategyOR;
    else if (part == "BF") mask |= core::kStrategyBF;
    else return Status::InvalidArgument("unknown strategy '" + part + "'");
    if (plus == std::string::npos) break;
    start = plus + 1;
  }
  return mask;
}

int RunGenerate(const FlagSet& flags) {
  const std::string kind = flags.GetString("dataset", "tiger");
  const std::string out = flags.GetString("out");
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));
  auto seed = flags.GetInt("seed", 2009);
  auto n = flags.GetInt("n", 0);
  if (!seed.ok()) return Fail(seed.status());
  if (!n.ok()) return Fail(n.status());

  workload::Dataset dataset;
  if (kind == "tiger") {
    workload::TigerSyntheticOptions options;
    if (*n > 0) options.num_points = static_cast<size_t>(*n);
    options.seed = static_cast<uint64_t>(*seed);
    dataset = workload::GenerateTigerSynthetic(options);
  } else if (kind == "corel") {
    workload::CorelSyntheticOptions options;
    if (*n > 0) options.num_points = static_cast<size_t>(*n);
    options.seed = static_cast<uint64_t>(*seed);
    dataset = workload::GenerateCorelSynthetic(options);
  } else if (kind == "uniform" || kind == "clustered") {
    auto dim = flags.GetInt("dim", 2);
    auto extent = flags.GetDouble("extent", 1000.0);
    auto clusters = flags.GetInt("clusters", 16);
    if (!dim.ok()) return Fail(dim.status());
    if (!extent.ok()) return Fail(extent.status());
    if (!clusters.ok()) return Fail(clusters.status());
    const size_t count = (*n > 0) ? static_cast<size_t>(*n) : 10000;
    const geom::Rect box(la::Vector(static_cast<size_t>(*dim), 0.0),
                         la::Vector(static_cast<size_t>(*dim), *extent));
    dataset = (kind == "uniform")
                  ? workload::GenerateUniform(count, box,
                                              static_cast<uint64_t>(*seed))
                  : workload::GenerateClustered(
                        count, box, static_cast<size_t>(*clusters),
                        *extent / 25.0, static_cast<uint64_t>(*seed));
  } else {
    return Fail(Status::InvalidArgument("unknown dataset '" + kind + "'"));
  }

  const Status status = workload::SaveCsv(dataset, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu %zu-D points to %s\n", dataset.size(), dataset.dim,
              out.c_str());
  return 0;
}

int RunSnapshot(const FlagSet& flags) {
  const std::string data = flags.GetString("data");
  const std::string out = flags.GetString("out");
  if (data.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("--data and --out are required"));
  }
  auto page_size = flags.GetInt("page-size", 4096);
  if (!page_size.ok()) return Fail(page_size.status());

  auto dataset = workload::LoadCsv(data);
  if (!dataset.ok()) return Fail(dataset.status());
  index::RStarTreeOptions options;
  options.max_entries = std::min<size_t>(
      32, index::TreeSnapshot::MaxEntriesPerPage(
              static_cast<size_t>(*page_size), dataset->dim));
  if (options.max_entries < 4) {
    return Fail(Status::InvalidArgument(
        "--page-size too small for this dimensionality"));
  }
  auto tree =
      index::StrBulkLoader::Load(dataset->dim, dataset->points, options);
  if (!tree.ok()) return Fail(tree.status());
  const Status status = index::TreeSnapshot::Write(
      *tree, out, static_cast<size_t>(*page_size));
  if (!status.ok()) return Fail(status);
  std::printf("snapshot: %zu points, %zu nodes, %lld-byte pages -> %s\n",
              tree->size(), tree->node_count(),
              static_cast<long long>(*page_size), out.c_str());
  return 0;
}

struct QuerySetup {
  workload::Dataset dataset;
  core::PrqQuery query;
};

Result<QuerySetup> LoadQuerySetup(const FlagSet& flags) {
  const std::string data = flags.GetString("data");
  if (data.empty()) return Status::InvalidArgument("--data is required");
  auto dataset = workload::LoadCsv(data);
  if (!dataset.ok()) return dataset.status();
  auto q = flags.GetDoubleList("q");
  if (!q.ok()) return q.status();
  if (q->size() != dataset->dim) {
    return Status::InvalidArgument("--q must have the dataset's dimension");
  }
  auto cov = CovarianceFromFlags(flags, dataset->dim);
  if (!cov.ok()) return cov.status();
  auto g = core::GaussianDistribution::Create(la::Vector(*q), *cov);
  if (!g.ok()) return g.status();
  auto delta = flags.GetDouble("delta", 1.0);
  auto theta = flags.GetDouble("theta", 0.1);
  if (!delta.ok()) return delta.status();
  if (!theta.ok()) return theta.status();
  return QuerySetup{std::move(*dataset),
                    core::PrqQuery{std::move(*g), *delta, *theta}};
}

/// The --evaluator flag: imhof (the default), mc or adaptive.
Result<std::string> EvaluatorKindFromFlags(const FlagSet& flags) {
  std::string kind = flags.GetString("evaluator", "imhof");
  if (kind != "imhof" && kind != "mc" && kind != "adaptive") {
    return Status::InvalidArgument("unknown evaluator '" + kind + "'");
  }
  return kind;
}

/// Builds every evaluator of the query commands: one per worker, with
/// per-worker seeds for the Monte-Carlo kinds (a single-thread query takes
/// worker 0's). `kind` is an EvaluatorKindFromFlags result.
core::PrqEngine::EvaluatorFactory MakeFactory(const std::string& kind,
                                              uint64_t samples) {
  return [kind, samples](size_t worker)
             -> std::unique_ptr<mc::ProbabilityEvaluator> {
    if (kind == "mc") {
      return std::make_unique<mc::MonteCarloEvaluator>(
          mc::MonteCarloOptions{.samples = samples, .seed = 7 + worker});
    }
    if (kind == "adaptive") {
      return std::make_unique<mc::AdaptiveMonteCarloEvaluator>(
          mc::AdaptiveMonteCarloOptions{.max_samples = samples,
                                        .seed = 7 + worker});
    }
    return std::make_unique<mc::ImhofEvaluator>();
  };
}

int RunShardQuery(const FlagSet& flags) {
  std::string manifest_path = flags.GetString("shards");
  if (manifest_path.find(".manifest") == std::string::npos) {
    manifest_path += "/shards.manifest";
  }
  auto q = flags.GetDoubleList("q");
  if (!q.ok()) return Fail(q.status());
  auto cov = CovarianceFromFlags(flags, q->size());
  if (!cov.ok()) return Fail(cov.status());
  auto g = core::GaussianDistribution::Create(la::Vector(*q), *cov);
  if (!g.ok()) return Fail(g.status());
  auto delta = flags.GetDouble("delta", 1.0);
  auto theta = flags.GetDouble("theta", 0.1);
  auto samples = flags.GetInt("samples", 100000);
  auto threads = flags.GetInt("threads", 4);
  if (!delta.ok()) return Fail(delta.status());
  if (!theta.ok()) return Fail(theta.status());
  if (!samples.ok()) return Fail(samples.status());
  if (!threads.ok()) return Fail(threads.status());
  auto strategy = StrategyFromFlags(flags);
  if (!strategy.ok()) return Fail(strategy.status());
  auto evaluator_kind = EvaluatorKindFromFlags(flags);
  if (!evaluator_kind.ok()) return Fail(evaluator_kind.status());

  auto executor = exec::BatchExecutor::CreateDetached(
      MakeFactory(*evaluator_kind, static_cast<uint64_t>(*samples)),
      static_cast<size_t>(*threads > 0 ? *threads : 1));
  if (!executor.ok()) return Fail(executor.status());
  auto engine = shard::ShardedPrqEngine::Open(manifest_path, executor->get());
  if (!engine.ok()) return Fail(engine.status());
  if (q->size() != (*engine)->dim()) {
    return Fail(
        Status::InvalidArgument("--q must have the deployment's dimension"));
  }

  core::PrqQuery query{std::move(*g), *delta, *theta};
  core::PrqOptions options;
  options.strategies = *strategy;
  if (flags.Has("qmc")) options.pool_variant = mc::PoolVariant::kHalton;

  core::PrqStats stats;
  obs::QueryTrace trace;
  auto result = (*engine)->ExecuteBounded(query, options, &stats, &trace);
  if (!result.ok()) return Fail(result.status());
  std::printf("sharded PRQ(delta=%.6g, theta=%.6g) over %llu points, "
              "%zu shards (%s)\n",
              query.delta, query.theta,
              static_cast<unsigned long long>((*engine)->total_points()),
              (*engine)->num_shards(), evaluator_kind->c_str());
  std::printf("  routed %llu/%llu shards, %zu index candidates, "
              "%zu integrations\n",
              static_cast<unsigned long long>(trace.shards_routed),
              static_cast<unsigned long long>(trace.shards_total),
              stats.index_candidates, stats.integration_candidates);
  std::printf("  time: %.2f ms (prep %.2f, scatter %.2f, p3 %.2f)\n",
              stats.total_seconds() * 1e3, stats.prep_seconds * 1e3,
              stats.phase1_seconds * 1e3, stats.phase3_seconds * 1e3);
  std::printf("  %zu results, %zu undecided, status: %s\n",
              result->ids.size(), result->undecided.size(),
              result->status.ToString().c_str());
  const size_t show = std::min<size_t>(result->ids.size(), 20);
  for (size_t i = 0; i < show; ++i) std::printf(" %u", result->ids[i]);
  if (show > 0) std::printf("\n");
  return 0;
}

int RunQuery(const FlagSet& flags) {
  if (flags.Has("shards")) return RunShardQuery(flags);
  auto setup = LoadQuerySetup(flags);
  if (!setup.ok()) return Fail(setup.status());
  auto strategy = StrategyFromFlags(flags);
  if (!strategy.ok()) return Fail(strategy.status());
  auto samples = flags.GetInt("samples", 100000);
  auto threads = flags.GetInt("threads", 1);
  if (!samples.ok()) return Fail(samples.status());
  if (!threads.ok()) return Fail(threads.status());

  auto tree = index::StrBulkLoader::Load(setup->dataset.dim,
                                         setup->dataset.points);
  if (!tree.ok()) return Fail(tree.status());
  const core::PrqEngine engine(&*tree);
  core::PrqOptions options;
  options.strategies = *strategy;
  auto priority = flags.GetInt("priority", core::kPriorityNormal);
  if (!priority.ok()) return Fail(priority.status());
  options.priority = static_cast<int>(*priority);
  if (flags.Has("qmc")) options.pool_variant = mc::PoolVariant::kHalton;

  auto evaluator_kind = EvaluatorKindFromFlags(flags);
  if (!evaluator_kind.ok()) return Fail(evaluator_kind.status());
  const core::PrqEngine::EvaluatorFactory factory =
      MakeFactory(*evaluator_kind, static_cast<uint64_t>(*samples));
  core::PrqStats stats;

  if (flags.Has("result-cache")) {
    // Cache demonstration path: one executor with the semantic result
    // cache enabled, the same query twice (the repeat is an exact hit),
    // and optionally a narrower θ' served by containment.
    auto theta2 = flags.GetDouble("theta2", 0.0);
    if (!theta2.ok()) return Fail(theta2.status());
    auto executor = exec::BatchExecutor::Create(
        &engine, factory, static_cast<size_t>(*threads > 0 ? *threads : 1));
    if (!executor.ok()) return Fail(executor.status());
    const Status enabled =
        (*executor)->EnableResultCache(cache::ResultCacheOptions{});
    if (!enabled.ok()) return Fail(enabled);

    const auto run = [&](const core::PrqQuery& q, const char* label)
        -> Result<core::PrqResult> {
      core::PrqStats run_stats;
      obs::QueryTrace trace;
      auto result = (*executor)->SubmitBounded(q, options, &run_stats, &trace);
      if (result.ok()) {
        const char* served = trace.cache_hit_exact      ? "exact cache hit"
                             : trace.cache_hit_semantic ? "semantic cache hit"
                                                        : "uncached";
        std::printf("  %s theta=%.6g: %zu results (%s, %.2f ms)\n", label,
                    q.theta, result->ids.size(), served,
                    run_stats.total_seconds() * 1e3);
      }
      return result;
    };

    std::printf("PRQ(delta=%.6g, theta=%.6g) cached evaluator=%s\n",
                setup->query.delta, setup->query.theta,
                evaluator_kind->c_str());
    auto first = run(setup->query, "run 1");
    if (!first.ok()) return Fail(first.status());
    auto second = run(setup->query, "run 2");
    if (!second.ok()) return Fail(second.status());
    if (*theta2 > 0.0) {
      core::PrqQuery narrower = setup->query;
      narrower.theta = *theta2;
      auto third = run(narrower, "run 3");
      if (!third.ok()) return Fail(third.status());
    }
    const cache::ResultCache* cache = (*executor)->result_cache();
    std::printf("  cache: %zu entries, %zu bytes\n", cache->entries(),
                cache->bytes());
    const size_t show = std::min<size_t>(second->ids.size(), 20);
    for (size_t i = 0; i < show; ++i) std::printf(" %u", second->ids[i]);
    if (show > 0) std::printf("\n");
    return 0;
  }

  if (flags.Has("overload-policy")) {
    // Governed path: the query goes through admission control exactly as a
    // serving client's would. An empty spec means the policy defaults.
    auto policy =
        exec::OverloadPolicy::FromSpec(flags.GetString("overload-policy"));
    if (!policy.ok()) return Fail(policy.status());
    auto executor = exec::BatchExecutor::Create(
        &engine, factory, static_cast<size_t>(*threads > 0 ? *threads : 1),
        *policy);
    if (!executor.ok()) return Fail(executor.status());
    obs::QueryTrace trace;
    auto bounded =
        (*executor)->SubmitBounded(setup->query, options, &stats, &trace);
    if (!bounded.ok()) return Fail(bounded.status());
    if (trace.shed) {
      std::printf("shed at admission (state=%s): %s\n",
                  exec::OverloadStateName((*executor)->overload()->state()),
                  bounded->status.ToString().c_str());
      std::printf("  retry after %.0f ms\n",
                  exec::RetryAfterSeconds(bounded->status) * 1e3);
      return 1;
    }
    std::printf("PRQ(delta=%.6g, theta=%.6g) governed evaluator=%s%s\n",
                setup->query.delta, setup->query.theta,
                evaluator_kind->c_str(),
                trace.browned_out ? " [brownout]" : "");
    std::printf("  admission: cost estimate %.1f, waited %.3f ms\n",
                trace.cost_estimate,
                static_cast<double>(trace.admission_wait_nanos) * 1e-6);
    std::printf("  %zu results, %zu undecided, status: %s\n",
                bounded->ids.size(), bounded->undecided.size(),
                bounded->status.ToString().c_str());
    const size_t show = std::min<size_t>(bounded->ids.size(), 20);
    for (size_t i = 0; i < show; ++i) {
      std::printf(" %u", bounded->ids[i]);
    }
    if (show > 0) std::printf("\n");
    return 0;
  }

  Result<std::vector<index::ObjectId>> result =
      Status::Internal("unreachable");
  if (*threads > 1) {
    auto executor = exec::BatchExecutor::Create(
        &engine, factory, static_cast<size_t>(*threads));
    if (!executor.ok()) return Fail(executor.status());
    result = (*executor)->Submit(setup->query, options, &stats);
  } else {
    const auto evaluator = factory(0);
    result = engine.Execute(setup->query, options, evaluator.get(), &stats);
  }
  if (!result.ok()) return Fail(result.status());

  std::printf("PRQ(delta=%.6g, theta=%.6g) strategy=%s evaluator=%s\n",
              setup->query.delta, setup->query.theta,
              core::StrategyName(*strategy).c_str(),
              evaluator_kind->c_str());
  std::printf("  index candidates: %zu, integrations: %zu, "
              "accepted free: %zu\n",
              stats.index_candidates, stats.integration_candidates,
              stats.accepted_without_integration);
  std::printf("  time: %.2f ms (prep %.2f, p1 %.2f, p2 %.2f, p3 %.2f)\n",
              stats.total_seconds() * 1e3, stats.prep_seconds * 1e3,
              stats.phase1_seconds * 1e3, stats.phase2_seconds * 1e3,
              stats.phase3_seconds * 1e3);
  std::printf("  %zu results:", result->size());
  const size_t show = std::min<size_t>(result->size(), 20);
  for (size_t i = 0; i < show; ++i) std::printf(" %u", (*result)[i]);
  if (result->size() > show) std::printf(" ...");
  std::printf("\n");
  return 0;
}

int RunPnn(const FlagSet& flags) {
  auto setup = LoadQuerySetup(flags);
  if (!setup.ok()) return Fail(setup.status());
  auto samples = flags.GetInt("samples", 20000);
  if (!samples.ok()) return Fail(samples.status());
  auto tree = index::StrBulkLoader::Load(setup->dataset.dim,
                                         setup->dataset.points);
  if (!tree.ok()) return Fail(tree.status());
  core::PnnStats stats;
  auto result = core::ProbabilisticNearestNeighbor(
      *tree, setup->query.query_object,
      static_cast<uint64_t>(*samples), 7, &stats);
  if (!result.ok()) return Fail(result.status());
  std::printf("PNN with %lld samples (%.1f ms): %zu candidates\n",
              static_cast<long long>(*samples), stats.seconds * 1e3,
              result->size());
  const size_t show = std::min<size_t>(result->size(), 10);
  for (size_t i = 0; i < show; ++i) {
    std::printf("  #%zu  object %u  p=%.4f (+-%.4f)\n", i + 1,
                (*result)[i].id, (*result)[i].probability,
                (*result)[i].std_error);
  }
  return 0;
}

int RunEstimate(const FlagSet& flags) {
  auto setup = LoadQuerySetup(flags);
  if (!setup.ok()) return Fail(setup.status());
  auto cells = flags.GetInt("cells", 128);
  if (!cells.ok()) return Fail(cells.status());
  auto histogram = core::GridHistogram::Build(
      setup->dataset.points, static_cast<size_t>(*cells));
  if (!histogram.ok()) return Fail(histogram.status());
  std::printf("%-10s%18s%22s%16s\n", "strategy", "index candidates",
              "integration candidates", "accepted free");
  for (core::StrategyMask mask :
       {core::kStrategyRR, core::kStrategyBF,
        core::kStrategyRR | core::kStrategyBF, core::kStrategyAll}) {
    auto estimate = core::EstimatePrqCandidates(
        *histogram, setup->query.query_object, setup->query.delta,
        setup->query.theta, mask);
    if (!estimate.ok()) return Fail(estimate.status());
    if (estimate->proved_empty) {
      std::printf("%-10s%18s\n", core::StrategyName(mask).c_str(),
                  "(provably empty)");
    } else {
      std::printf("%-10s%18.0f%22.0f%16.0f\n",
                  core::StrategyName(mask).c_str(),
                  estimate->index_candidates,
                  estimate->integration_candidates,
                  estimate->accepted_free);
    }
  }
  return 0;
}

int RunRemote(const FlagSet& flags) {
  const std::string host = flags.GetString("host", "127.0.0.1");
  auto port = flags.GetInt("port", 0);
  if (!port.ok()) return Fail(port.status());
  if (*port <= 0 || *port > 65535) {
    return Fail(Status::InvalidArgument("--port is required"));
  }
  auto retries = flags.GetInt("retries", 3);
  if (!retries.ok()) return Fail(retries.status());

  net::ClientOptions client_options;
  client_options.max_shed_retries = static_cast<int>(*retries);
  auto client = net::Client::Connect(host, static_cast<uint16_t>(*port),
                                     client_options);
  if (!client.ok()) return Fail(client.status());
  const net::WelcomeFrame& info = (*client)->server_info();
  std::printf("connected: GPRQ/%u, %llu %u-D points%s\n", info.version,
              static_cast<unsigned long long>(info.points), info.dim,
              info.sharded ? " (sharded)" : "");

  if (flags.Has("stats")) {
    const std::string format = flags.GetString("stats", "json");
    auto body = (*client)->Stats(format == "prom"
                                     ? net::StatsFormat::kPrometheus
                                     : net::StatsFormat::kJson);
    if (!body.ok()) return Fail(body.status());
    std::printf("%s\n", body->c_str());
    return 0;
  }

  auto q = flags.GetDoubleList("q");
  if (!q.ok()) return Fail(q.status());
  if (q->size() != info.dim) {
    return Fail(
        Status::InvalidArgument("--q must have the server's dimension"));
  }
  auto cov = CovarianceFromFlags(flags, q->size());
  if (!cov.ok()) return Fail(cov.status());
  auto g = core::GaussianDistribution::Create(la::Vector(*q), *cov);
  if (!g.ok()) return Fail(g.status());
  auto delta = flags.GetDouble("delta", 1.0);
  auto theta = flags.GetDouble("theta", 0.1);
  auto priority = flags.GetInt("priority", core::kPriorityNormal);
  auto deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  auto strategy = StrategyFromFlags(flags);
  if (!delta.ok()) return Fail(delta.status());
  if (!theta.ok()) return Fail(theta.status());
  if (!priority.ok()) return Fail(priority.status());
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  if (!strategy.ok()) return Fail(strategy.status());

  core::PrqQuery query{std::move(*g), *delta, *theta};
  core::PrqOptions options;
  options.strategies = *strategy;
  options.priority = static_cast<int>(*priority);
  if (flags.Has("qmc")) options.pool_variant = mc::PoolVariant::kHalton;
  if (*deadline_ms > 0.0) {
    options.control.deadline = common::Deadline::After(*deadline_ms * 1e-3);
  }

  auto remote = (*client)->Query(query, options);
  if (!remote.ok()) return Fail(remote.status());
  if (remote->shed) {
    std::printf("shed by server after %d retries: %s\n", remote->shed_retries,
                remote->result.status.ToString().c_str());
    std::printf("  retry after %u ms\n", remote->retry_after_ms);
    return 1;
  }
  std::printf("remote PRQ(delta=%.6g, theta=%.6g): %zu results, "
              "%zu undecided\n",
              query.delta, query.theta, remote->result.ids.size(),
              remote->result.undecided.size());
  std::printf("  status: %s\n", remote->result.status.ToString().c_str());
  std::printf("  server %.2f ms (%llu integrations), wire %.2f ms, "
              "%d shed retries\n",
              static_cast<double>(remote->server_micros) * 1e-3,
              static_cast<unsigned long long>(remote->integrations),
              remote->wire_seconds * 1e3, remote->shed_retries);
  const size_t show = std::min<size_t>(remote->result.ids.size(), 20);
  std::printf("  ids:");
  for (size_t i = 0; i < show; ++i) {
    std::printf(" %u", remote->result.ids[i]);
  }
  if (remote->result.ids.size() > show) std::printf(" ...");
  std::printf("\n");
  if (!remote->result.undecided.empty()) {
    const size_t undecided_show =
        std::min<size_t>(remote->result.undecided.size(), 20);
    std::printf("  undecided:");
    for (size_t i = 0; i < undecided_show; ++i) {
      std::printf(" %u", remote->result.undecided[i]);
    }
    if (remote->result.undecided.size() > undecided_show) std::printf(" ...");
    std::printf("\n");
  }
  if (flags.Has("print-ids")) {
    // Machine-readable, sorted, complete — scripts compare these lines
    // across runs to prove set identity / degradation.
    std::vector<index::ObjectId> ids = remote->result.ids;
    std::vector<index::ObjectId> undecided = remote->result.undecided;
    std::sort(ids.begin(), ids.end());
    std::sort(undecided.begin(), undecided.end());
    std::printf("IDS:");
    for (index::ObjectId id : ids) std::printf(" %u", id);
    std::printf("\nUNDECIDED:");
    for (index::ObjectId id : undecided) std::printf(" %u", id);
    std::printf("\n");
  }
  const bool complete =
      remote->result.status.ok() && remote->result.undecided.empty();
  if (flags.Has("expect-complete") && !complete) {
    std::fprintf(stderr,
                 "FAIL: expected a complete answer, got status '%s' with "
                 "%zu undecided\n",
                 remote->result.status.ToString().c_str(),
                 remote->result.undecided.size());
    return 1;
  }
  if (flags.Has("expect-degraded") &&
      (remote->result.status.ok() || remote->result.undecided.empty())) {
    std::fprintf(stderr,
                 "FAIL: expected an explicit partial answer, got status "
                 "'%s' with %zu undecided\n",
                 remote->result.status.ToString().c_str(),
                 remote->result.undecided.size());
    return 1;
  }
  return 0;
}

int RunListFailpoints(const FlagSet& flags) {
  (void)flags;
  std::printf("failpoint sites compiled into this binary (%s):\n",
              fault::kEnabled ? "enabled" : "compiled out");
  fault::FailpointRegistry& registry = fault::FailpointRegistry::Global();
  for (const std::string& site : fault::KnownSites()) {
    const fault::FailpointStats stats = registry.Stats(site);
    bool armed = false;
    for (const std::string& name : registry.Armed()) {
      if (name == site) armed = true;
    }
    if (armed) {
      std::printf("  %-28s armed (%llu evaluations, %llu triggers)\n",
                  site.c_str(),
                  static_cast<unsigned long long>(stats.evaluations),
                  static_cast<unsigned long long>(stats.triggers));
    } else {
      std::printf("  %-28s\n", site.c_str());
    }
  }
  std::printf(
      "\narm with GPRQ_FAILPOINTS='site=error(io[,p=P,skip=N,max=M]);"
      "site=delay(MICROS)'\n"
      "codes: io, internal, notfound, invalid\n");
  return 0;
}

// ---- storage: online updates against a WAL-backed directory ---------------

Result<storage::StorageOptions> StorageOptionsFromFlags(const FlagSet& flags) {
  storage::StorageOptions options;
  auto page_size = flags.GetInt("page-size", 4096);
  if (!page_size.ok()) return page_size.status();
  options.page_size = static_cast<size_t>(*page_size);
  auto batch = flags.GetInt("batch", 1);
  if (!batch.ok()) return batch.status();
  options.group_commit_ops = static_cast<size_t>(*batch > 0 ? *batch : 1);
  return options;
}

Result<std::unique_ptr<storage::StorageEngine>> OpenStorage(
    const FlagSet& flags, storage::WalReplayInfo* replayed = nullptr) {
  const std::string dir = flags.GetString("dir");
  if (dir.empty()) return Status::InvalidArgument("--dir is required");
  auto options = StorageOptionsFromFlags(flags);
  if (!options.ok()) return options.status();
  return storage::StorageEngine::Open(dir, *options, replayed);
}

void PrintStorageState(const storage::StorageEngine& engine) {
  const auto snapshot = engine.PinSnapshot();
  std::printf("storage: %zu objects (d=%zu), height %zu, epoch %llu, "
              "lsn %llu\n",
              snapshot->size(), snapshot->dim(), snapshot->height(),
              static_cast<unsigned long long>(snapshot->epoch()),
              static_cast<unsigned long long>(snapshot->lsn()));
}

int RunStorageInit(const FlagSet& flags) {
  const std::string dir = flags.GetString("dir");
  if (dir.empty()) return Fail(Status::InvalidArgument("--dir is required"));
  auto dim = flags.GetInt("dim", 2);
  if (!dim.ok()) return Fail(dim.status());
  auto options = StorageOptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  auto engine =
      storage::StorageEngine::Create(dir, static_cast<size_t>(*dim),
                                     *options);
  if (!engine.ok()) return Fail(engine.status());
  std::printf("initialised %s: empty %lld-d tree, page size %zu\n",
              dir.c_str(), static_cast<long long>(*dim),
              (*engine)->options().page_size);
  return 0;
}

int RunStorageStats(const FlagSet& flags) {
  storage::WalReplayInfo replayed;
  auto engine = OpenStorage(flags, &replayed);
  if (!engine.ok()) return Fail(engine.status());
  PrintStorageState(**engine);
  std::printf("  wal: %llu records scanned on open%s\n",
              static_cast<unsigned long long>(replayed.records),
              replayed.truncated_tail ? ", torn tail discarded" : "");
  return 0;
}

int RunStorageVerify(const FlagSet& flags) {
  auto engine = OpenStorage(flags);
  if (!engine.ok()) return Fail(engine.status());
  const auto snapshot = (*engine)->PinSnapshot();
  if (const Status invariants = snapshot->CheckInvariants();
      !invariants.ok()) {
    return Fail(invariants);
  }
  PrintStorageState(**engine);
  std::printf("  invariants OK\n");
  return 0;
}

int RunStorageCheckpoint(const FlagSet& flags) {
  auto engine = OpenStorage(flags);
  if (!engine.ok()) return Fail(engine.status());
  if (const Status status = (*engine)->Checkpoint(); !status.ok()) {
    return Fail(status);
  }
  std::printf("checkpointed %s; WAL restarted\n",
              flags.GetString("dir").c_str());
  PrintStorageState(**engine);
  return 0;
}

int RunStorageQuery(const FlagSet& flags) {
  auto engine = OpenStorage(flags);
  if (!engine.ok()) return Fail(engine.status());
  const size_t dim = (*engine)->dim();
  auto q = flags.GetDoubleList("q");
  if (!q.ok()) return Fail(q.status());
  if (q->size() != dim) {
    return Fail(Status::InvalidArgument("--q must have the tree's dimension"));
  }
  auto cov = CovarianceFromFlags(flags, dim);
  if (!cov.ok()) return Fail(cov.status());
  auto g = core::GaussianDistribution::Create(la::Vector(*q), *cov);
  if (!g.ok()) return Fail(g.status());
  auto delta = flags.GetDouble("delta", 1.0);
  auto theta = flags.GetDouble("theta", 0.1);
  if (!delta.ok()) return Fail(delta.status());
  if (!theta.ok()) return Fail(theta.status());
  const core::PrqQuery query{std::move(*g), *delta, *theta};
  auto strategy = StrategyFromFlags(flags);
  if (!strategy.ok()) return Fail(strategy.status());
  auto samples = flags.GetInt("samples", 100000);
  auto threads = flags.GetInt("threads", 1);
  if (!samples.ok()) return Fail(samples.status());
  if (!threads.ok()) return Fail(threads.status());
  auto evaluator_kind = EvaluatorKindFromFlags(flags);
  if (!evaluator_kind.ok()) return Fail(evaluator_kind.status());
  auto executor = exec::BatchExecutor::CreateDetached(
      MakeFactory(*evaluator_kind, static_cast<uint64_t>(*samples)),
      static_cast<size_t>(*threads > 0 ? *threads : 1));
  if (!executor.ok()) return Fail(executor.status());
  storage::LivePrqEngine live(engine->get(), executor->get());
  core::PrqOptions options;
  options.strategies = *strategy;
  core::PrqStats stats;
  auto result = live.Execute(query, options, &stats);
  if (!result.ok()) return Fail(result.status());
  std::sort(result->begin(), result->end());
  std::printf("live PRQ(delta=%.6g, theta=%.6g) over epoch %llu: "
              "%zu results\n",
              query.delta, query.theta,
              static_cast<unsigned long long>(
                  (*engine)->PinSnapshot()->epoch()),
              result->size());
  std::printf("  phase1 %zu candidates, phase3 %zu integrations, %.2f ms\n",
              stats.index_candidates, stats.integration_candidates,
              stats.total_seconds() * 1e3);
  const size_t show = std::min<size_t>(result->size(), 20);
  std::printf("  ids:");
  for (size_t i = 0; i < show; ++i) std::printf(" %u", (*result)[i]);
  if (result->size() > show) std::printf(" ...");
  std::printf("\n");
  return 0;
}

int RunStorage(const FlagSet& flags) {
  if (flags.Has("init")) return RunStorageInit(flags);
  if (flags.Has("checkpoint")) return RunStorageCheckpoint(flags);
  if (flags.Has("verify")) return RunStorageVerify(flags);
  if (flags.Has("q")) return RunStorageQuery(flags);
  if (flags.Has("stats") || flags.Has("dir")) return RunStorageStats(flags);
  return Usage();
}

int RunStorageMutation(const FlagSet& flags, bool insert) {
  auto engine = OpenStorage(flags);
  if (!engine.ok()) return Fail(engine.status());
  const size_t dim = (*engine)->dim();

  if (insert && flags.Has("data")) {
    // Bulk path: stream a CSV through the normal logged write path.
    auto dataset = workload::LoadCsv(flags.GetString("data"));
    if (!dataset.ok()) return Fail(dataset.status());
    if (dataset->dim != dim) {
      return Fail(Status::InvalidArgument(
          "CSV dimension does not match the storage directory"));
    }
    auto id_base = flags.GetInt("id-base", 1);
    if (!id_base.ok()) return Fail(id_base.status());
    for (size_t i = 0; i < dataset->points.size(); ++i) {
      const Status status = (*engine)->Insert(
          dataset->points[i],
          static_cast<index::ObjectId>(*id_base + static_cast<int64_t>(i)));
      if (!status.ok()) return Fail(status);
    }
    if (const Status status = (*engine)->Flush(); !status.ok()) {
      return Fail(status);
    }
    std::printf("inserted %zu points from %s\n", dataset->points.size(),
                flags.GetString("data").c_str());
    PrintStorageState(**engine);
    return 0;
  }

  auto p = flags.GetDoubleList("p");
  if (!p.ok()) return Fail(p.status());
  if (p->size() != dim) {
    return Fail(Status::InvalidArgument("--p must have the tree's dimension"));
  }
  auto id = flags.GetInt("id", -1);
  if (!id.ok()) return Fail(id.status());
  if (*id < 0) return Fail(Status::InvalidArgument("--id is required"));
  const la::Vector point(*p);
  const Status status =
      insert ? (*engine)->Insert(point, static_cast<index::ObjectId>(*id))
             : (*engine)->Delete(point, static_cast<index::ObjectId>(*id));
  if (!status.ok()) return Fail(status);
  if (const Status flushed = (*engine)->Flush(); !flushed.ok()) {
    return Fail(flushed);
  }
  std::printf("%s (point, id=%lld): durable\n",
              insert ? "inserted" : "deleted",
              static_cast<long long>(*id));
  PrintStorageState(**engine);
  return 0;
}

int Main(int argc, char** argv) {
  // Operators can inject faults without code changes:
  //   GPRQ_FAILPOINTS='index.page_file.read=error(io,p=0.01)' gprq_cli ...
  if (const Status armed = fault::FailpointRegistry::Global().ArmFromEnv();
      !armed.ok()) {
    Fail(armed);
    return 2;
  }
  std::vector<std::string> args(argv + 1, argv + argc);
  auto flags = FlagSet::Parse(args);
  if (!flags.ok()) {
    Fail(flags.status());
    return Usage();
  }
  int code;
  const std::string& command = flags->command();
  if (command == "generate") code = RunGenerate(*flags);
  else if (command == "snapshot") code = RunSnapshot(*flags);
  else if (command == "query") code = RunQuery(*flags);
  else if (command == "pnn") code = RunPnn(*flags);
  else if (command == "estimate") code = RunEstimate(*flags);
  else if (command == "remote") code = RunRemote(*flags);
  else if (command == "list-failpoints") code = RunListFailpoints(*flags);
  else if (command == "storage") code = RunStorage(*flags);
  else if (command == "insert") code = RunStorageMutation(*flags, true);
  else if (command == "delete") code = RunStorageMutation(*flags, false);
  else return Usage();

  for (const std::string& key : flags->UnusedKeys()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
  }
  return code;
}

}  // namespace
}  // namespace gprq

int main(int argc, char** argv) { return gprq::Main(argc, argv); }
