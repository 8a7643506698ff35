// Live-socket battery for the GPRQ/1 server: protocol robustness against
// a real listener (bad magic, oversized length, garbage payloads,
// mid-frame disconnects — each a clean ERROR frame or connection close
// with gprq.net.decode_errors incremented, never a crash), bounded
// pipelining, the STATS frame, read/write failpoints degrading exactly
// one connection, graceful drain, and the one submitter rule (the
// backend's concurrent_submitters()).

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "core/engine.h"
#include "exec/batch_executor.h"
#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "index/str_bulk_load.h"
#include "mc/monte_carlo.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace gprq::net {
namespace {

constexpr uint64_t kSamples = 2000;

core::PrqEngine::EvaluatorFactory McFactory() {
  return [](size_t worker) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::MonteCarloEvaluator>(
        mc::MonteCarloOptions{.samples = kSamples, .seed = 7 + worker});
  };
}

/// Dataset + tree + engine + executor + server, torn down in order.
struct ServedBackend {
  workload::Dataset dataset;
  std::unique_ptr<index::RStarTree> tree;
  std::unique_ptr<core::PrqEngine> engine;
  std::unique_ptr<exec::BatchExecutor> executor;
  std::unique_ptr<Server> server;

  static ServedBackend Make(ServerOptions options = ServerOptions()) {
    ServedBackend backend;
    const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{1000.0, 1000.0});
    backend.dataset = workload::GenerateClustered(2000, extent, 14, 35.0, 31);
    auto tree = index::StrBulkLoader::Load(2, backend.dataset.points);
    EXPECT_TRUE(tree.ok());
    backend.tree = std::make_unique<index::RStarTree>(std::move(*tree));
    backend.engine = std::make_unique<core::PrqEngine>(backend.tree.get());
    auto executor =
        exec::BatchExecutor::Create(backend.engine.get(), McFactory(), 2);
    EXPECT_TRUE(executor.ok());
    backend.executor = std::move(*executor);
    auto server = Server::Serve(backend.executor.get(), options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    backend.server = std::move(*server);
    return backend;
  }

  core::PrqQuery Query(size_t center) const {
    auto g = core::GaussianDistribution::Create(
        dataset.points[center % dataset.size()],
        workload::PaperCovariance2D(10.0));
    EXPECT_TRUE(g.ok());
    return core::PrqQuery{std::move(*g), 25.0, 0.01};
  }
};

// -- raw-socket helpers -----------------------------------------------------

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void RawSend(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<size_t>(n);
  }
}

/// Reads one frame; false on clean EOF before a byte arrived.
bool RawReadFrame(int fd, FrameType* type, std::string* payload) {
  uint8_t header[kFrameHeaderBytes];
  size_t have = 0;
  while (have < sizeof(header)) {
    const ssize_t n = ::recv(fd, header + have, sizeof(header) - have, 0);
    if (n == 0 && have == 0) return false;
    EXPECT_GT(n, 0) << "mid-header EOF or error: " << std::strerror(errno);
    if (n <= 0) return false;
    have += static_cast<size_t>(n);
  }
  auto parsed = ParseFrameHeader(header, kDefaultMaxFrameBytes);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return false;
  payload->assign(parsed->length, '\0');
  size_t got = 0;
  while (got < payload->size()) {
    const ssize_t n =
        ::recv(fd, payload->data() + got, payload->size() - got, 0);
    EXPECT_GT(n, 0);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  *type = parsed->type;
  return true;
}

/// True when the peer closed: clean FIN (recv 0) or RST (ECONNRESET —
/// what a close with unread inbound bytes produces).
bool ReachesEof(int fd) {
  char byte;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  return n == 0 || (n < 0 && errno == ECONNRESET);
}

uint64_t DecodeErrors() {
  return obs::MetricRegistry::Global()
      .GetCounter("gprq.net.decode_errors")
      ->Value();
}

std::string ValidQueryFrame(const ServedBackend& backend, uint64_t request_id,
                            size_t center = 0) {
  core::PrqOptions options;
  return EncodeQuery(
      QueryFrame::FromQuery(request_id, backend.Query(center), options));
}

// -- robustness battery (live) ----------------------------------------------

TEST(NetServer, BadMagicAnswersConnectionErrorAndCloses) {
  auto backend = ServedBackend::Make();
  const uint64_t errors_before = DecodeErrors();

  const int fd = RawConnect(backend.server->port());
  std::string junk = "XXXXXXXXXXXX";  // 12 bytes, wrong magic
  RawSend(fd, junk);
  FrameType type;
  std::string payload;
  ASSERT_TRUE(RawReadFrame(fd, &type, &payload));
  ASSERT_EQ(type, FrameType::kError);
  auto error = DecodeErrorPayload(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->request_id, 0u);  // connection-level
  EXPECT_TRUE(ReachesEof(fd));
  ::close(fd);
  EXPECT_GE(DecodeErrors(), errors_before + 1);

  // The server survives: a fresh connection gets real answers.
  auto client = Client::Connect("127.0.0.1", backend.server->port());
  ASSERT_TRUE(client.ok());
  core::PrqOptions options;
  auto result = (*client)->Query(backend.Query(0), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->result.status.ok());
}

TEST(NetServer, OversizedLengthRejectedBeforePayload) {
  auto backend = ServedBackend::Make();
  const uint64_t errors_before = DecodeErrors();

  const int fd = RawConnect(backend.server->port());
  // A header claiming 16 MB: rejected at the 12-byte mark — the server
  // must answer ERROR + close without waiting for (or allocating) the
  // claimed payload, which we never send.
  std::string header;
  AppendFrameHeader(&header, FrameType::kQuery, 16u << 20);
  RawSend(fd, header);
  FrameType type;
  std::string payload;
  ASSERT_TRUE(RawReadFrame(fd, &type, &payload));
  EXPECT_EQ(type, FrameType::kError);
  EXPECT_TRUE(ReachesEof(fd));
  ::close(fd);
  EXPECT_GE(DecodeErrors(), errors_before + 1);
}

TEST(NetServer, GarbageQueryPayloadIsRequestScoped) {
  auto backend = ServedBackend::Make();
  const uint64_t errors_before = DecodeErrors();

  const int fd = RawConnect(backend.server->port());
  // A well-framed QUERY whose payload is garbage past the request_id: the
  // stream stays intact, so the error is request-scoped and the
  // connection keeps working.
  std::string payload;
  const uint64_t request_id = 77;
  payload.append(reinterpret_cast<const char*>(&request_id), 8);
  payload.append(64, '\x5A');
  std::string frame;
  AppendFrameHeader(&frame, FrameType::kQuery,
                    static_cast<uint32_t>(payload.size()));
  frame += payload;
  RawSend(fd, frame);

  FrameType type;
  std::string reply;
  ASSERT_TRUE(RawReadFrame(fd, &type, &reply));
  ASSERT_EQ(type, FrameType::kError);
  auto error = DecodeErrorPayload(
      reinterpret_cast<const uint8_t*>(reply.data()), reply.size());
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->request_id, 77u);
  EXPECT_GE(DecodeErrors(), errors_before + 1);

  // Same connection, valid query: still served.
  RawSend(fd, ValidQueryFrame(backend, 78));
  ASSERT_TRUE(RawReadFrame(fd, &type, &reply));
  EXPECT_EQ(type, FrameType::kResponse);
  auto response = DecodeResponsePayload(
      reinterpret_cast<const uint8_t*>(reply.data()), reply.size(),
      kDefaultMaxFrameBytes);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->request_id, 78u);
  ::close(fd);
}

TEST(NetServer, MidFrameDisconnectCountsAsDecodeError) {
  auto backend = ServedBackend::Make();
  const uint64_t errors_before = DecodeErrors();

  const int fd = RawConnect(backend.server->port());
  const std::string frame = ValidQueryFrame(backend, 1);
  RawSend(fd, frame.substr(0, frame.size() / 2));
  ::close(fd);  // disconnect mid-frame

  // The loop observes EOF with a partial frame buffered; poll until the
  // counter reflects it (the loop runs asynchronously).
  bool counted = false;
  for (int i = 0; i < 200 && !counted; ++i) {
    counted = DecodeErrors() >= errors_before + 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(counted);

  // And the server still serves.
  auto client = Client::Connect("127.0.0.1", backend.server->port());
  ASSERT_TRUE(client.ok());
  core::PrqOptions options;
  EXPECT_TRUE((*client)->Query(backend.Query(2), options).ok());
}

TEST(NetServer, HelloNegotiatesAndAdvertisesDataset) {
  auto backend = ServedBackend::Make();
  auto client = Client::Connect("127.0.0.1", backend.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->server_info().version, kProtocolVersion);
  EXPECT_EQ((*client)->server_info().dim, 2u);
  EXPECT_EQ((*client)->server_info().points, backend.dataset.size());
  EXPECT_EQ((*client)->server_info().sharded, 0);
}

TEST(NetServer, FutureOnlyHelloIsRejected) {
  auto backend = ServedBackend::Make();
  const int fd = RawConnect(backend.server->port());
  RawSend(fd, EncodeHello(HelloFrame{/*min_version=*/9, /*max_version=*/9}));
  FrameType type;
  std::string payload;
  ASSERT_TRUE(RawReadFrame(fd, &type, &payload));
  EXPECT_EQ(type, FrameType::kError);
  EXPECT_TRUE(ReachesEof(fd));
  ::close(fd);
}

TEST(NetServer, StatsFrameExportsRegistry) {
  auto backend = ServedBackend::Make();
  auto client = Client::Connect("127.0.0.1", backend.server->port());
  ASSERT_TRUE(client.ok());
  auto json = (*client)->Stats(StatsFormat::kJson);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("gprq.net.connections"), std::string::npos);
  auto prom = (*client)->Stats(StatsFormat::kPrometheus);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("gprq_net_connections"), std::string::npos);
}

TEST(NetServer, PipelinedRequestsAllAnsweredUnderInflightCap) {
  ServerOptions options;
  options.max_inflight_per_conn = 2;  // force pause/resume cycles
  auto backend = ServedBackend::Make(options);

  const int fd = RawConnect(backend.server->port());
  constexpr uint64_t kRequests = 8;
  std::string burst;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    burst += ValidQueryFrame(backend, id, /*center=*/id);
  }
  RawSend(fd, burst);  // all eight before reading anything

  std::set<uint64_t> answered;
  for (uint64_t i = 0; i < kRequests; ++i) {
    FrameType type;
    std::string payload;
    ASSERT_TRUE(RawReadFrame(fd, &type, &payload));
    ASSERT_EQ(type, FrameType::kResponse);
    auto response = DecodeResponsePayload(
        reinterpret_cast<const uint8_t*>(payload.data()), payload.size(),
        kDefaultMaxFrameBytes);
    ASSERT_TRUE(response.ok());
    answered.insert(response->request_id);
  }
  EXPECT_EQ(answered.size(), kRequests);
  EXPECT_EQ(*answered.begin(), 1u);
  EXPECT_EQ(*answered.rbegin(), kRequests);
  ::close(fd);
}

// -- failpoints -------------------------------------------------------------

class FailpointGuard {
 public:
  ~FailpointGuard() { fault::FailpointRegistry::Global().DisarmAll(); }
};

TEST(NetServer, WriteFaultDegradesOnlyThatConnection) {
  if (!fault::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  auto backend = ServedBackend::Make();
  FailpointGuard guard;

  // Two raw connections, both established before the fault is armed.
  const int victim = RawConnect(backend.server->port());
  const int bystander = RawConnect(backend.server->port());

  const uint64_t faults_before = obs::MetricRegistry::Global()
                                     .GetCounter("gprq.net.io_faults")
                                     ->Value();
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("net.server.write=error(io,max=1)")
                  .ok());

  // The victim's response write hits the fault: its connection dies
  // mid-response (degraded), nothing else does.
  RawSend(victim, ValidQueryFrame(backend, 1));
  EXPECT_TRUE(ReachesEof(victim));
  ::close(victim);
  EXPECT_EQ(obs::MetricRegistry::Global()
                .GetCounter("gprq.net.io_faults")
                ->Value(),
            faults_before + 1);

  // The bystander connection — open across the fault — still works.
  RawSend(bystander, ValidQueryFrame(backend, 2));
  FrameType type;
  std::string payload;
  ASSERT_TRUE(RawReadFrame(bystander, &type, &payload));
  EXPECT_EQ(type, FrameType::kResponse);
  ::close(bystander);
}

TEST(NetServer, ReadFaultClosesConnectionServerSurvives) {
  if (!fault::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  auto backend = ServedBackend::Make();
  FailpointGuard guard;

  const int fd = RawConnect(backend.server->port());
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("net.server.read=error(io,max=1)")
                  .ok());
  RawSend(fd, ValidQueryFrame(backend, 1));
  EXPECT_TRUE(ReachesEof(fd));  // read path faulted → connection closed
  ::close(fd);

  fault::FailpointRegistry::Global().DisarmAll();
  auto client = Client::Connect("127.0.0.1", backend.server->port());
  ASSERT_TRUE(client.ok());
  core::PrqOptions options;
  EXPECT_TRUE((*client)->Query(backend.Query(3), options).ok());
}

// -- graceful drain ---------------------------------------------------------

TEST(NetServer, DrainFinishesInflightAndRejectsNewQueries) {
  if (!fault::kEnabled) GTEST_SKIP() << "needs the delay failpoint";
  ServerOptions options;
  options.drain_retry_after_seconds = 2.5;
  auto backend = ServedBackend::Make(options);
  FailpointGuard guard;

  // Slow the in-flight query down so the drain window is observable.
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("exec.batch_executor.chunk=delay(300000)")
                  .ok());

  const int fd = RawConnect(backend.server->port());
  RawSend(fd, ValidQueryFrame(backend, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  backend.server->RequestDrain();
  EXPECT_TRUE(backend.server->draining());

  // A query sent during the drain is answered RETRY_AFTER with the
  // configured hint; the in-flight one still completes and flushes.
  std::string second = ValidQueryFrame(backend, 2);
  // request_id 2 is encoded at payload offset 0 → byte 12 of the frame.
  RawSend(fd, second);

  bool saw_retry = false;
  bool saw_response = false;
  for (int i = 0; i < 2 && !(saw_retry && saw_response); ++i) {
    FrameType type;
    std::string payload;
    ASSERT_TRUE(RawReadFrame(fd, &type, &payload));
    const uint8_t* data = reinterpret_cast<const uint8_t*>(payload.data());
    if (type == FrameType::kRetryAfter) {
      auto retry = DecodeRetryAfterPayload(data, payload.size());
      ASSERT_TRUE(retry.ok());
      EXPECT_EQ(retry->retry_after_ms, 2500u);
      saw_retry = true;
    } else if (type == FrameType::kResponse) {
      auto response =
          DecodeResponsePayload(data, payload.size(), kDefaultMaxFrameBytes);
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->request_id, 1u);
      saw_response = true;
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_response);

  // Everything flushed → the drain completes and the connection closes.
  EXPECT_TRUE(backend.server->WaitDrained(10.0));
  EXPECT_TRUE(ReachesEof(fd));
  ::close(fd);

  // The listener is gone: new connections are refused.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(backend.server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_NE(::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ::close(probe);
}

TEST(NetServer, DrainWithIdleConnectionsCompletesImmediately) {
  auto backend = ServedBackend::Make();
  const int fd = RawConnect(backend.server->port());
  // Complete a HELLO exchange so the loop has actually accepted the
  // connection before the drain begins (a connect alone can still be
  // sitting in the listener's backlog).
  RawSend(fd, EncodeHello(HelloFrame{}));
  FrameType type;
  std::string payload;
  ASSERT_TRUE(RawReadFrame(fd, &type, &payload));
  ASSERT_EQ(type, FrameType::kWelcome);
  backend.server->RequestDrain();
  EXPECT_TRUE(backend.server->WaitDrained(5.0));
  EXPECT_TRUE(ReachesEof(fd));  // idle connections are closed by the drain
  ::close(fd);
}

// -- option validation ------------------------------------------------------

TEST(NetServer, InvalidOptionsRejected) {
  workload::Dataset dataset = workload::GenerateClustered(
      64, geom::Rect(la::Vector{0.0, 0.0}, la::Vector{10.0, 10.0}), 4, 1.0,
      7);
  auto tree = index::StrBulkLoader::Load(2, dataset.points);
  ASSERT_TRUE(tree.ok());
  const core::PrqEngine engine(&*tree);
  auto executor = exec::BatchExecutor::Create(&engine, McFactory(), 1);
  ASSERT_TRUE(executor.ok());

  ServerOptions bad;
  bad.max_inflight_per_conn = 0;
  EXPECT_FALSE(Server::Serve(executor->get(), bad).ok());
  bad = ServerOptions();
  bad.host = "not an address";
  EXPECT_FALSE(Server::Serve(executor->get(), bad).ok());
  EXPECT_FALSE(Server::Serve(nullptr, ServerOptions()).ok());

  // Detached executors have no engine to describe in WELCOME.
  auto detached = exec::BatchExecutor::CreateDetached(McFactory(), 1);
  ASSERT_TRUE(detached.ok());
  auto served = Server::Serve(detached->get(), ServerOptions());
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kInvalidArgument);
}

// -- the one submitter rule --------------------------------------------------

/// A backend that answers every query empty and measures how many of its
/// calls overlap. Each call waits, up to `wait_seconds`, for a second call
/// to be in flight at the same time — a latch with a timeout, so an
/// overlap is observed as soon as it happens and its absence costs at
/// most `wait_seconds` per call.
class OverlapProbe : public core::QueryBackend {
 public:
  OverlapProbe(bool concurrent, double wait_seconds)
      : concurrent_(concurrent), wait_seconds_(wait_seconds) {}

  Result<core::BackendInfo> Describe() const override {
    core::BackendInfo info;
    info.dim = 2;
    return info;
  }

  Result<core::PrqResult> ExecuteQueryBounded(const core::PrqQuery&,
                                              const core::PrqOptions&,
                                              core::PrqStats*) override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++in_flight_;
    max_in_flight_ = std::max(max_in_flight_, in_flight_);
    overlap_cv_.notify_all();
    overlap_cv_.wait_for(lock, std::chrono::duration<double>(wait_seconds_),
                         [this] { return max_in_flight_ >= 2; });
    --in_flight_;
    ++calls_;
    return core::PrqResult{};
  }

  bool concurrent_submitters() const override { return concurrent_; }

  size_t max_in_flight() {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_in_flight_;
  }
  size_t calls() {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }

 private:
  const bool concurrent_;
  const double wait_seconds_;
  std::mutex mutex_;
  std::condition_variable overlap_cv_;
  size_t in_flight_ = 0;
  size_t max_in_flight_ = 0;
  size_t calls_ = 0;
};

/// Sends `per_client` queries from each of `clients` client threads at
/// once and expects every one answered.
void QueryFromClients(uint16_t port, size_t clients, size_t per_client) {
  auto g = core::GaussianDistribution::Create(
      la::Vector{0.0, 0.0}, workload::PaperCovariance2D(10.0));
  ASSERT_TRUE(g.ok());
  const core::PrqQuery query{std::move(*g), 25.0, 0.01};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", port);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      for (size_t q = 0; q < per_client; ++q) {
        auto reply = (*client)->Query(query, core::PrqOptions());
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        EXPECT_TRUE(reply->result.complete());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(NetServer, ExecutorTakesConcurrentSubmittersOnlyWhenGoverned) {
  workload::Dataset dataset = workload::GenerateClustered(
      64, geom::Rect(la::Vector{0.0, 0.0}, la::Vector{10.0, 10.0}), 4, 1.0,
      7);
  auto tree = index::StrBulkLoader::Load(2, dataset.points);
  ASSERT_TRUE(tree.ok());
  const core::PrqEngine engine(&*tree);
  auto executor = exec::BatchExecutor::Create(&engine, McFactory(), 1);
  ASSERT_TRUE(executor.ok());
  EXPECT_FALSE((*executor)->concurrent_submitters());
  ASSERT_TRUE((*executor)->SetOverloadPolicy(exec::OverloadPolicy{}).ok());
  EXPECT_TRUE((*executor)->concurrent_submitters());
}

TEST(NetServer, SingleSubmitterBackendNeverSeesTwoCallsInFlight) {
  OverlapProbe probe(/*concurrent=*/false, /*wait_seconds=*/0.05);
  ServerOptions options;
  options.submit_threads = 4;  // asked for, but the backend says no
  auto server = Server::Serve(&probe, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  QueryFromClients((*server)->port(), 4, 2);
  EXPECT_EQ(probe.calls(), 8u);
  EXPECT_EQ(probe.max_in_flight(), 1u);
}

TEST(NetServer, ConcurrentBackendCallsOverlap) {
  // Generous wait: the test ends as soon as the overlap happens.
  OverlapProbe probe(/*concurrent=*/true, /*wait_seconds=*/20.0);
  ServerOptions options;
  options.submit_threads = 4;
  auto server = Server::Serve(&probe, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  QueryFromClients((*server)->port(), 2, 1);
  EXPECT_EQ(probe.calls(), 2u);
  EXPECT_EQ(probe.max_in_flight(), 2u);
}

}  // namespace
}  // namespace gprq::net
