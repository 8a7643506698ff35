// gprq_server: the GPRQ/1 network front-end. Loads a dataset (CSV) or a
// sharded deployment, stands up the serving backend, and speaks the
// length-prefixed wire protocol of src/net until SIGTERM/SIGINT, which
// triggers a graceful drain (finish in-flight queries, flush responses,
// exit 0).
//
// Examples:
//   gprq_server --data points.csv --port 7709
//   gprq_server --data points.csv --port 0 --overload-policy ''
//       (ephemeral port — read it back from the READY line on stdout;
//        empty policy spec = admission control with the defaults)
//   gprq_server --shards deploy/ --port 7709 --threads 8
//
// Readiness contract (scripts and CI depend on it): once the socket is
// bound and the threads are up, exactly one line
//   GPRQ_SERVER READY port=<p> dim=<d> points=<n>
// is printed to stdout and flushed.

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/engine.h"
#include "exec/batch_executor.h"
#include "fault/failpoint.h"
#include "index/str_bulk_load.h"
#include "mc/adaptive_monte_carlo.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "net/server.h"
#include "shard/sharded_engine.h"
#include "workload/csv.h"

namespace gprq {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: gprq_server (--data FILE.csv | --shards DIR) [--flags]\n"
      "  --host H             listen address (default 127.0.0.1)\n"
      "  --port P             listen port; 0 = ephemeral (default 0)\n"
      "  --threads K          backend worker threads (default 4)\n"
      "  --submitters N       submitter threads feeding admission control\n"
      "                       (default 2; forced to 1 without a policy and\n"
      "                       for --shards)\n"
      "  --shard-only K       with --shards: serve only manifest shard K\n"
      "                       (one process per shard behind a coordinator)\n"
      "  --evaluator E        imhof|mc|adaptive (default imhof)\n"
      "  --samples N          Phase-3 sample budget for mc/adaptive\n"
      "  --overload-policy S  install admission control; S is 'key=value;...'\n"
      "                       per exec/overload.h, '' for the defaults\n"
      "  --max-inflight N     pipelined requests per connection (default 32)\n"
      "  --max-frame-bytes N  reject larger frames at the header\n"
      "  --max-connections N  accept-and-close beyond this (default 1024)\n"
      "  --drain-retry-ms N   retry_after_ms answered while draining\n"
      "failpoints: net.server.read / net.server.write via GPRQ_FAILPOINTS\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

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

// SIGTERM/SIGINT → graceful drain. RequestDrain is async-signal-safe (one
// atomic store + one write(2) on the self-pipe), so the handler may call
// it directly.
net::Server* g_server = nullptr;
std::atomic<int> g_signal{0};

void HandleSignal(int signum) {
  g_signal.store(signum, std::memory_order_relaxed);
  if (g_server != nullptr) g_server->RequestDrain();
}

int Main(int argc, char** argv) {
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
  const std::string data = flags->GetString("data");
  const std::string shards = flags->GetString("shards");
  if (data.empty() == shards.empty()) {
    Fail(Status::InvalidArgument(
        "exactly one of --data and --shards is required"));
    return Usage();
  }

  auto port = flags->GetInt("port", 0);
  auto threads = flags->GetInt("threads", 4);
  auto submitters = flags->GetInt("submitters", 2);
  auto samples = flags->GetInt("samples", 100000);
  auto max_inflight = flags->GetInt("max-inflight", 32);
  auto max_frame = flags->GetInt("max-frame-bytes",
                                 static_cast<int64_t>(net::kDefaultMaxFrameBytes));
  auto max_connections = flags->GetInt("max-connections", 1024);
  auto drain_retry_ms = flags->GetDouble("drain-retry-ms", 1000.0);
  for (const auto* numeric :
       {&port, &threads, &submitters, &samples, &max_inflight, &max_frame,
        &max_connections}) {
    if (!numeric->ok()) return Fail(numeric->status());
  }
  if (!drain_retry_ms.ok()) return Fail(drain_retry_ms.status());
  if (*port < 0 || *port > 65535) {
    return Fail(Status::InvalidArgument("--port must be in [0, 65535]"));
  }
  const std::string evaluator_kind = flags->GetString("evaluator", "imhof");
  if (evaluator_kind != "imhof" && evaluator_kind != "mc" &&
      evaluator_kind != "adaptive") {
    return Fail(
        Status::InvalidArgument("unknown evaluator '" + evaluator_kind + "'"));
  }

  net::ServerOptions server_options;
  server_options.host = flags->GetString("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(*port);
  server_options.submit_threads =
      static_cast<size_t>(*submitters > 0 ? *submitters : 1);
  server_options.max_inflight_per_conn =
      static_cast<size_t>(*max_inflight > 0 ? *max_inflight : 1);
  server_options.max_frame_bytes = static_cast<size_t>(*max_frame);
  server_options.max_connections = static_cast<size_t>(*max_connections);
  server_options.drain_retry_after_seconds = *drain_retry_ms * 1e-3;

  const size_t workers = static_cast<size_t>(*threads > 0 ? *threads : 1);
  const auto factory =
      MakeFactory(evaluator_kind, static_cast<uint64_t>(*samples));

  // The backend objects must outlive the server; keep them on the stack of
  // Main in declaration order (server destroyed first).
  workload::Dataset dataset;
  std::unique_ptr<index::RStarTree> tree;
  std::unique_ptr<core::PrqEngine> engine;
  std::unique_ptr<exec::BatchExecutor> executor;
  std::unique_ptr<shard::ShardedPrqEngine> sharded;
  core::QueryBackend* backend = nullptr;

  if (!data.empty()) {
    auto loaded = workload::LoadCsv(data);
    if (!loaded.ok()) return Fail(loaded.status());
    dataset = std::move(*loaded);
    auto built = index::StrBulkLoader::Load(dataset.dim, dataset.points);
    if (!built.ok()) return Fail(built.status());
    tree = std::make_unique<index::RStarTree>(std::move(*built));
    engine = std::make_unique<core::PrqEngine>(tree.get());
    Result<std::unique_ptr<exec::BatchExecutor>> created =
        Status::Internal("unreachable");
    if (flags->Has("overload-policy")) {
      auto policy =
          exec::OverloadPolicy::FromSpec(flags->GetString("overload-policy"));
      if (!policy.ok()) return Fail(policy.status());
      created =
          exec::BatchExecutor::Create(engine.get(), factory, workers, *policy);
    } else {
      created = exec::BatchExecutor::Create(engine.get(), factory, workers);
    }
    if (!created.ok()) return Fail(created.status());
    executor = std::move(*created);
    backend = executor.get();
  } else {
    std::string manifest_path = shards;
    if (manifest_path.find(".manifest") == std::string::npos) {
      manifest_path += "/shards.manifest";
    }
    auto created = exec::BatchExecutor::CreateDetached(factory, workers);
    if (!created.ok()) return Fail(created.status());
    executor = std::move(*created);
    shard::ShardedEngineOptions sharded_options;
    if (flags->Has("shard-only")) {
      auto only = flags->GetInt("shard-only", -1);
      if (!only.ok()) return Fail(only.status());
      sharded_options.only_shard = *only;
    }
    auto opened = shard::ShardedPrqEngine::Open(manifest_path, executor.get(),
                                                sharded_options);
    if (!opened.ok()) return Fail(opened.status());
    sharded = std::move(*opened);
    backend = sharded.get();
  }
  auto served = net::Server::Serve(backend, server_options);
  if (!served.ok()) return Fail(served.status());
  std::unique_ptr<net::Server> server = std::move(*served);

  for (const std::string& key : flags->UnusedKeys()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
  }

  g_server = server.get();
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  // The readiness contract: one line, stdout, flushed.
  std::printf("GPRQ_SERVER READY port=%u dim=%u points=%llu\n",
              static_cast<unsigned>(server->port()), server->info().dim,
              static_cast<unsigned long long>(server->info().points));
  std::fflush(stdout);

  server->WaitDrained(0.0);  // blocks until a signal triggers the drain
  const int signum = g_signal.load(std::memory_order_relaxed);
  std::fprintf(stderr, "gprq_server: drained after signal %d\n", signum);
  g_server = nullptr;
  server->Shutdown();
  server.reset();
  // With admission control installed, wait for released tickets too — the
  // submitters have joined, so this returns immediately unless a governed
  // caller outside the server still holds one.
  if (executor != nullptr && executor->overload() != nullptr) {
    const Status idle = executor->Drain(5.0);
    if (!idle.ok()) return Fail(idle);
  }
  return 0;
}

}  // namespace
}  // namespace gprq

int main(int argc, char** argv) { return gprq::Main(argc, argv); }
