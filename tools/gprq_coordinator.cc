// gprq_coordinator: the fault-tolerant front door of a multi-process
// deployment. Holds the shard manifest, routes each incoming GPRQ/1 query
// to the backends whose shard MBR meets the search box (one gprq_server
// --shard-only process per shard), and merges their answers under the
// partial-answer contract: a backend that cannot answer within budget
// contributes its routed candidates as *undecided*, never a silent gap.
//
// Example (4 shards):
//   gprq_server --shards deploy/ --shard-only 0 --port 7710 &
//   ... one per shard ...
//   gprq_coordinator --shards deploy/ --port 7709
//       --backends 127.0.0.1:7710,127.0.0.1:7711,127.0.0.1:7712,127.0.0.1:7713
//   gprq_cli remote --port 7709 --q 500,500 --gamma 10 --delta 25 --theta 0.01
//
// Readiness contract (scripts and CI depend on it): once serving, exactly
// one line
//   GPRQ_COORDINATOR READY port=<p> dim=<d> points=<n> shards=<k>
// is printed to stdout and flushed. SIGTERM/SIGINT drains gracefully.

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "exec/batch_executor.h"
#include "fault/failpoint.h"
#include "mc/exact_evaluator.h"
#include "net/server.h"
#include "remote/remote_engine.h"

namespace gprq {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: gprq_coordinator --shards DIR --backends H:P,H:P,... [--flags]\n"
      "  --shards DIR         the deployment's manifest directory (or the\n"
      "                       manifest file itself); routing needs the MBRs\n"
      "  --backends LIST      one host:port per manifest shard, in order\n"
      "  --host H             listen address (default 127.0.0.1)\n"
      "  --port P             listen port; 0 = ephemeral (default 0)\n"
      "  --threads K          scatter worker threads (default: shard count)\n"
      "  --policy S           remote fault policy 'key=value;...' per\n"
      "                       remote/remote_policy.h ('' = defaults)\n"
      "  --no-fallback        do not enumerate a dead shard's candidates\n"
      "                       locally (they become unknown, not undecided)\n"
      "  --probe              probe every backend at startup; exit on a\n"
      "                       mis-wired one (unreachable ones are fine)\n"
      "  --max-inflight N     pipelined requests per connection (default 32)\n"
      "  --max-connections N  accept-and-close beyond this (default 1024)\n"
      "failpoints: remote.rpc.send / remote.rpc.recv (per-shard suffixed\n"
      "variants remote.rpc.send.<k>) via GPRQ_FAILPOINTS\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

net::Server* g_server = nullptr;
std::atomic<int> g_signal{0};

void HandleSignal(int signum) {
  g_signal.store(signum, std::memory_order_relaxed);
  if (g_server != nullptr) g_server->RequestDrain();
}

Result<std::vector<remote::BackendAddress>> ParseBackends(
    const std::string& list) {
  std::vector<remote::BackendAddress> backends;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t sep = list.find(',', pos);
    if (sep == std::string::npos) sep = list.size();
    const std::string entry = list.substr(pos, sep - pos);
    pos = sep + 1;
    if (entry.empty()) continue;
    Result<remote::BackendAddress> address =
        remote::ParseBackendAddress(entry);
    if (!address.ok()) return address.status();
    backends.push_back(std::move(*address));
  }
  if (backends.empty()) {
    return Status::InvalidArgument("--backends needs at least one host:port");
  }
  return backends;
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
  std::string manifest_path = flags->GetString("shards");
  if (manifest_path.empty()) {
    Fail(Status::InvalidArgument("--shards is required"));
    return Usage();
  }
  if (manifest_path.find(".manifest") == std::string::npos) {
    manifest_path += "/shards.manifest";
  }
  auto backends = ParseBackends(flags->GetString("backends"));
  if (!backends.ok()) {
    Fail(backends.status());
    return Usage();
  }

  auto port = flags->GetInt("port", 0);
  auto threads = flags->GetInt("threads",
                               static_cast<int64_t>(backends->size()));
  auto max_inflight = flags->GetInt("max-inflight", 32);
  auto max_connections = flags->GetInt("max-connections", 1024);
  for (const auto* numeric :
       {&port, &threads, &max_inflight, &max_connections}) {
    if (!numeric->ok()) return Fail(numeric->status());
  }
  if (*port < 0 || *port > 65535) {
    return Fail(Status::InvalidArgument("--port must be in [0, 65535]"));
  }

  remote::RemoteEngineOptions engine_options;
  if (flags->Has("policy")) {
    auto policy = remote::RemotePolicy::FromSpec(flags->GetString("policy"));
    if (!policy.ok()) return Fail(policy.status());
    engine_options.policy = *policy;
  }
  engine_options.local_fallback = !flags->Has("no-fallback");
  engine_options.probe_on_open = flags->Has("probe");

  // The coordinator's workers only run scatter RPC tasks — the evaluator
  // factory is never exercised. One worker per shard keeps the scatter
  // fully parallel.
  auto executor = exec::BatchExecutor::CreateDetached(
      [](size_t) -> std::unique_ptr<mc::ProbabilityEvaluator> {
        return std::make_unique<mc::ImhofEvaluator>();
      },
      static_cast<size_t>(*threads > 0 ? *threads : 1));
  if (!executor.ok()) return Fail(executor.status());
  auto engine = remote::RemoteShardedEngine::Open(
      manifest_path, std::move(*backends), executor->get(), engine_options);
  if (!engine.ok()) return Fail(engine.status());

  net::ServerOptions server_options;
  server_options.host = flags->GetString("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(*port);
  server_options.max_inflight_per_conn =
      static_cast<size_t>(*max_inflight > 0 ? *max_inflight : 1);
  server_options.max_connections = static_cast<size_t>(*max_connections);

  auto served = net::Server::Serve(engine->get(), server_options);
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

  std::printf("GPRQ_COORDINATOR READY port=%u dim=%u points=%llu shards=%zu\n",
              static_cast<unsigned>(server->port()), server->info().dim,
              static_cast<unsigned long long>(server->info().points),
              (*engine)->num_shards());
  std::fflush(stdout);

  server->WaitDrained(0.0);
  const int signum = g_signal.load(std::memory_order_relaxed);
  std::fprintf(stderr, "gprq_coordinator: drained after signal %d\n", signum);
  g_server = nullptr;
  server->Shutdown();
  server.reset();
  return 0;
}

}  // namespace
}  // namespace gprq

int main(int argc, char** argv) { return gprq::Main(argc, argv); }
