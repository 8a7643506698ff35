// The serving-stack layers, measured in the second half of engine-2d's
// traced run: two `gprq_server --shard-only` backends behind
// `gprq_coordinator`, started as child processes on loopback over K = 2
// shards built during set-up (paged trees with 32-entry nodes, each
// larger than its backend's 128-page buffer pool). The engine-2d query
// stream runs through the coordinator in two legs:
//
//  * open loop — Poisson arrivals at kOpenRate queries/s, a fixed
//    absolute rate (about a quarter of the warmed capacity of a 4-core
//    x86-64 host), pipelined by one generator thread over kConnections
//    connections and timed from the due time. slo_miss_frac (limit
//    kLatencyLimitMs) and the generator's lag come from this leg.
//  * closed loop — one client, one query in flight, so the net.* round
//    trips also cover the stack without queueing.
//
// The net.*, shard.*, remote.* and paged-index figures cover both legs;
// the children's counters come from their STATS exports. No end-to-end
// figure is taken here: over a deployment of three processes on a shared
// host, latency and throughput swing by more than any useful regression
// bound from run to run.
//
// The generator's own lateness is recorded; a run whose p99 send lag
// exceeds kMaxLagMs is invalid rather than slow.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "harness.h"
#include "index/dataset_file.h"
#include "layers.h"
#include "net/client.h"
#include "net/protocol.h"
#include "queries.h"
#include "rng/random.h"
#include "shard/shard_builder.h"
#include "workloads.h"

namespace perfbench {

namespace core = gprq::core;
namespace net = gprq::net;

namespace {

constexpr size_t kShards = 2;
constexpr size_t kConnections = 4;
constexpr double kOpenRate = 25.0;        // queries per second
constexpr double kLatencyLimitMs = 100.0;  // slo_miss_frac limit
constexpr double kMaxLagMs = 50.0;         // generator p99 send lag
constexpr double kOpenShare = 0.3;         // of the run; the rest is closed
constexpr double kDrainSeconds = 20.0;     // wait for stragglers

// One pipelined GPRQ/1 connection. The generator thread writes, the
// receiver thread reads; the socket is non-blocking.
class Pipe {
 public:
  static Result<std::unique_ptr<Pipe>> Open(uint16_t port) {
    auto fd = net::ConnectFd("127.0.0.1", port, 5.0);
    if (!fd.ok()) return fd.status();
    std::unique_ptr<Pipe> pipe(new Pipe(*fd));
    GPRQ_RETURN_NOT_OK(pipe->Send(net::EncodeHello(net::HelloFrame{})));
    std::vector<Frame> frames;
    const double deadline = Now() + 5.0;
    while (frames.empty()) {
      if (Now() > deadline) return Status::DeadlineExceeded("no WELCOME");
      GPRQ_RETURN_NOT_OK(pipe->Wait(0.05));
      GPRQ_RETURN_NOT_OK(pipe->Drain(&frames));
    }
    if (frames[0].type != net::FrameType::kWelcome) {
      return Status::IoError("expected WELCOME");
    }
    return pipe;
  }
  ~Pipe() { ::close(fd_); }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  struct Frame {
    net::FrameType type;
    std::string payload;
  };

  Status Send(const std::string& frame) {
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        GPRQ_RETURN_NOT_OK(net::PollReady(fd_, POLLOUT, 5.0, "send"));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return Status::IoError(std::string("send: ") + std::strerror(errno));
      }
    }
    bytes_out_ += frame.size();
    return Status::OK();
  }

  // Reads what is available and appends every complete frame.
  Status Drain(std::vector<Frame>* frames) {
    char buf[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        in_.append(buf, static_cast<size_t>(n));
        bytes_in_ += static_cast<uint64_t>(n);
        continue;
      }
      if (n == 0) return Status::IoError("server closed the connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    size_t at = 0;
    while (in_.size() - at >= net::kFrameHeaderBytes) {
      auto header = net::ParseFrameHeader(
          reinterpret_cast<const uint8_t*>(in_.data() + at),
          net::kDefaultMaxFrameBytes);
      if (!header.ok()) return header.status();
      if (in_.size() - at < net::kFrameHeaderBytes + header->length) break;
      frames->push_back(
          {header->type,
           in_.substr(at + net::kFrameHeaderBytes, header->length)});
      at += net::kFrameHeaderBytes + header->length;
    }
    in_.erase(0, at);
    return Status::OK();
  }

  Status Wait(double seconds) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(seconds * 1000.0)) < 0 &&
        errno != EINTR) {
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    return Status::OK();
  }

  int fd() const { return fd_; }
  uint64_t bytes() const { return bytes_in_ + bytes_out_; }

 private:
  explicit Pipe(int fd) : fd_(fd) {}
  int fd_;
  std::string in_;
  uint64_t bytes_out_ = 0;
  uint64_t bytes_in_ = 0;
};

struct Request {
  uint64_t index = 0;  // position in the query stream
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool answered = false;
  bool ok = false;  // a complete RESPONSE with status OK
  uint64_t server_micros = 0;
  std::vector<ObjectId> ids;
};

// Matches response frames to requests (request id = slot + 1) and returns
// the slots that just completed.
Status Collect(std::vector<std::unique_ptr<Pipe>>& pipes,
               std::vector<Request>& requests,
               std::vector<std::pair<size_t, size_t>>* completed) {
  std::vector<pollfd> pfds;
  for (const auto& pipe : pipes) pfds.push_back({pipe->fd(), POLLIN, 0});
  if (::poll(pfds.data(), pfds.size(), 20) < 0 && errno != EINTR) {
    return Status::IoError(std::string("poll: ") + std::strerror(errno));
  }
  for (size_t c = 0; c < pipes.size(); ++c) {
    if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    std::vector<Pipe::Frame> frames;
    GPRQ_RETURN_NOT_OK(pipes[c]->Drain(&frames));
    const double now = Now();
    for (const Pipe::Frame& frame : frames) {
      const auto* data = reinterpret_cast<const uint8_t*>(frame.payload.data());
      uint64_t id = 0;
      Request answer;
      if (frame.type == net::FrameType::kResponse) {
        auto response = net::DecodeResponsePayload(
            data, frame.payload.size(), net::kDefaultMaxFrameBytes);
        if (!response.ok()) return response.status();
        id = response->request_id;
        answer.ok = response->status_code == 0 && response->undecided.empty();
        answer.server_micros = response->server_micros;
        answer.ids = Sorted(std::move(response->ids));
      } else if (frame.type == net::FrameType::kRetryAfter) {
        auto retry = net::DecodeRetryAfterPayload(data, frame.payload.size());
        if (!retry.ok()) return retry.status();
        id = retry->request_id;
      } else if (frame.type == net::FrameType::kError) {
        auto error = net::DecodeErrorPayload(data, frame.payload.size());
        if (!error.ok()) return error.status();
        id = error->request_id;
      }
      if (id == 0 || id > requests.size() || requests[id - 1].answered) {
        return Status::IoError("unexpected frame from the coordinator");
      }
      Request& request = requests[id - 1];
      request.answered = true;
      request.done = now;
      request.ok = answer.ok;
      request.server_micros = answer.server_micros;
      request.ids = std::move(answer.ids);
      completed->emplace_back(id - 1, c);
    }
  }
  return Status::OK();
}

std::string QueryFrameFor(const Query2dStream& stream, uint64_t index,
                          uint64_t request_id) {
  return net::EncodeQuery(net::QueryFrame::FromQuery(
      request_id, stream.At(index), core::PrqOptions{}));
}

struct Deployment {
  std::vector<Child> backends;
  Child coordinator;
  std::vector<std::unique_ptr<Pipe>> pipes;
  std::vector<uint16_t> ports;  // backends, then the coordinator
};

Result<uint16_t> AwaitReady(Child* child, const char* marker) {
  auto line = child->WaitForLine(marker, 60.0);
  if (!line.ok()) return line.status();
  auto port = ReadyField(*line, "port");
  if (!port.ok()) return port.status();
  return static_cast<uint16_t>(*port);
}

Result<std::unique_ptr<Deployment>> SetUp(const RunConfig& config,
                                          const std::string& dir) {
  RemoveTree(dir);
  GPRQ_RETURN_NOT_OK(MakeDirs(dir + "/deploy"));
  const gprq::workload::Dataset dataset = TigerDataset();
  const std::string points_path = dir + "/points.gprq";
  {
    auto writer = gprq::index::DatasetFileWriter::Create(points_path,
                                                         dataset.dim);
    if (!writer.ok()) return writer.status();
    for (const auto& point : dataset.points) {
      GPRQ_RETURN_NOT_OK(writer->Append(point));
    }
    GPRQ_RETURN_NOT_OK(writer->Finish());
  }
  auto mapped = gprq::index::MmapDataset::Open(points_path);
  if (!mapped.ok()) return mapped.status();
  gprq::shard::ShardBuildOptions build;
  build.num_shards = kShards;
  build.tree_options.max_entries = 32;
  auto manifest =
      gprq::shard::BuildShards(*mapped, points_path, dir + "/deploy", build);
  if (!manifest.ok()) return manifest.status();

  auto deployment = std::make_unique<Deployment>();
  for (size_t k = 0; k < kShards; ++k) {
    std::vector<std::string> argv = {config.bin_dir + "/gprq_server",
                                     "--shards", dir + "/deploy",
                                     "--shard-only", std::to_string(k),
                                     "--port", "0"};
    for (const std::string& flag : McServerFlags()) argv.push_back(flag);
    auto child = Child::Spawn(argv, dir + "/backend" + std::to_string(k) +
                                        ".err");
    if (!child.ok()) return child.status();
    deployment->backends.push_back(std::move(*child));
  }
  std::string backends;
  for (Child& backend : deployment->backends) {
    auto port = AwaitReady(&backend, "GPRQ_SERVER READY");
    if (!port.ok()) return port.status();
    deployment->ports.push_back(*port);
    if (!backends.empty()) backends += ",";
    backends += "127.0.0.1:" + std::to_string(*port);
  }
  auto coordinator = Child::Spawn(
      {config.bin_dir + "/gprq_coordinator", "--shards", dir + "/deploy",
       "--backends", backends, "--port", "0"},
      dir + "/coordinator.err");
  if (!coordinator.ok()) return coordinator.status();
  deployment->coordinator = std::move(*coordinator);
  auto port = AwaitReady(&deployment->coordinator, "GPRQ_COORDINATOR READY");
  if (!port.ok()) return port.status();
  deployment->ports.push_back(*port);
  for (size_t c = 0; c < kConnections; ++c) {
    auto pipe = Pipe::Open(*port);
    if (!pipe.ok()) return pipe.status();
    deployment->pipes.push_back(std::move(*pipe));
  }

  // Warm-up, billed here: lazy U-catalogs in the coordinator and both
  // backends, their first pools, and the coordinator's backend
  // connections. Queries go out on every connection at once, and two of
  // them sit on opposite corners of the map so both shards are routed.
  const Query2dStream warm(&dataset, ~config.seed);
  std::vector<Request> requests(4 * kConnections);
  for (size_t i = 0; i < requests.size(); ++i) {
    core::PrqQuery query = warm.At(i);
    if (i < 2) {
      const double corner = i == 0 ? 50.0 : 950.0;
      auto gaussian = core::GaussianDistribution::Create(
          gprq::la::Vector{corner, corner},
          gprq::workload::PaperCovariance2D(10.0));
      query = core::PrqQuery{std::move(*gaussian), 25.0, 0.01};
    }
    GPRQ_RETURN_NOT_OK(deployment->pipes[i % kConnections]->Send(
        net::EncodeQuery(net::QueryFrame::FromQuery(i + 1, query, {}))));
  }
  size_t answered = 0;
  const double deadline = Now() + 60.0;
  while (answered < requests.size()) {
    if (Now() > deadline) return Status::DeadlineExceeded("warm-up");
    std::vector<std::pair<size_t, size_t>> completed;
    GPRQ_RETURN_NOT_OK(Collect(deployment->pipes, requests, &completed));
    answered += completed.size();
  }
  for (const Request& request : requests) {
    if (!request.ok) return Status::Internal("warm-up query failed");
  }
  return deployment;
}

Result<std::string> FetchStats(uint16_t port) {
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  return (*client)->Stats(net::StatsFormat::kJson);
}

Result<std::vector<std::string>> FetchAllStats(const Deployment& deployment) {
  std::vector<std::string> bodies;
  for (uint16_t port : deployment.ports) {
    auto body = FetchStats(port);
    if (!body.ok()) return body.status();
    bodies.push_back(std::move(*body));
  }
  return bodies;
}

}  // namespace

Status RunRemoteLayers(const RunConfig& config, Report* report) {
  const std::string dir = config.work_dir + "/remote";
  auto made = SetUp(config, dir);
  if (!made.ok()) return made.status();
  std::unique_ptr<Deployment> deployment = std::move(*made);
  const gprq::workload::Dataset dataset = TigerDataset();
  const Query2dStream stream(&dataset, config.seed);
  std::vector<std::unique_ptr<Pipe>>& pipes = deployment->pipes;

  auto stats_before = FetchAllStats(*deployment);
  if (!stats_before.ok()) return stats_before.status();
  uint64_t bytes0 = 0;
  for (const auto& pipe : pipes) bytes0 += pipe->bytes();

  // ---- Open-loop leg: the schedule is fixed before the first send.
  const double open_start = Now() + 0.05;
  const double open_end = open_start + config.seconds * kOpenShare;
  std::vector<Request> requests;
  {
    gprq::rng::Random arrivals(Mix(config.seed, 0xA441));
    double t = open_start;
    while (true) {
      t += -std::log(1.0 - arrivals.NextDouble()) / kOpenRate;
      if (t >= open_end) break;
      Request request;
      request.index = requests.size();
      request.due = t;
      requests.push_back(std::move(request));
    }
  }
  const size_t open_count = requests.size();
  Status sender_status;
  std::thread generator([&] {
    for (size_t i = 0; i < open_count; ++i) {
      const std::string frame = QueryFrameFor(stream, requests[i].index, i + 1);
      SleepUntil(requests[i].due);
      requests[i].sent = Now();
      sender_status = pipes[i % kConnections]->Send(frame);
      if (!sender_status.ok()) return;
    }
  });
  Status receive_status;
  {
    size_t answered = 0;
    const double give_up = requests.empty()
                               ? Now()
                               : requests.back().due + kDrainSeconds;
    while (answered < open_count && Now() < give_up) {
      std::vector<std::pair<size_t, size_t>> completed;
      receive_status = Collect(pipes, requests, &completed);
      if (!receive_status.ok()) break;
      answered += completed.size();
    }
  }
  generator.join();
  GPRQ_RETURN_NOT_OK(sender_status);
  GPRQ_RETURN_NOT_OK(receive_status);

  // ---- Closed-loop leg: one client, one query in flight. Open-leg
  // answers that come in late are recorded but do not drive this loop.
  const double closed_end = Now() + config.seconds * (1.0 - kOpenShare);
  {
    const auto send_next = [&](size_t connection) -> Status {
      Request request;
      request.index = requests.size();
      request.due = request.sent = Now();
      requests.push_back(std::move(request));
      return pipes[connection]->Send(
          QueryFrameFor(stream, requests.back().index, requests.size()));
    };
    bool in_flight = true;
    GPRQ_RETURN_NOT_OK(send_next(0));
    const double give_up = closed_end + kDrainSeconds;
    while (in_flight && Now() < give_up) {
      std::vector<std::pair<size_t, size_t>> completed;
      GPRQ_RETURN_NOT_OK(Collect(pipes, requests, &completed));
      for (const auto& [slot, connection] : completed) {
        if (slot + 1 != requests.size()) continue;
        in_flight = false;
        if (Now() < closed_end) {
          GPRQ_RETURN_NOT_OK(send_next(connection));
          in_flight = true;
        }
      }
    }
  }
  uint64_t bytes = 0;
  for (const auto& pipe : pipes) bytes += pipe->bytes();
  bytes -= bytes0;
  auto stats_after = FetchAllStats(*deployment);
  if (!stats_after.ok()) return stats_after.status();
  deployment.reset();  // closes the pipes, then stops and reaps every child

  // ---- Oracle: every request of both legs against the plain path.
  const double oracle_start = Now();
  auto tree = BuildTree(dataset);
  if (!tree.ok()) return tree.status();
  const core::PrqEngine engine(&*tree);
  engine.radius_catalog();
  engine.alpha_catalog();
  std::vector<core::PrqQuery> queries;
  for (const Request& request : requests) {
    queries.push_back(stream.At(request.index));
  }
  auto reference = ReferenceAnswers(&engine, queries, kOracleThreads);
  if (!reference.ok()) return reference.status();
  RemoveTree(dir);

  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t slo_misses = 0;
  Samples lag, rtt, server;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    const bool correct = request.answered && request.ok;
    if (!correct) ++failed;
    if (correct && request.ids != (*reference)[i]) ++mismatches;
    if (i < open_count) {
      lag.Add(request.sent - request.due);
      if (!correct || (request.done - request.due) * 1e3 > kLatencyLimitMs ||
          request.ids != (*reference)[i]) {
        ++slo_misses;
      }
    }
    if (!request.answered) continue;
    rtt.Add(request.done - request.sent);
    server.Add(static_cast<double>(request.server_micros) * 1e-6);
  }
  const size_t closed_count = requests.size() - open_count;
  const double all = static_cast<double>(requests.size());

  report->Set("slo_miss_frac",
              static_cast<double>(slo_misses) / static_cast<double>(open_count),
              "ratio");
  report->Set("run.generator_lag_p99_ms", lag.Quantile(0.99) * 1e3, "ms");
  if (lag.Quantile(0.99) * 1e3 > kMaxLagMs) {
    report->Invalidate("open-loop generator p99 lag " +
                       std::to_string(lag.Quantile(0.99) * 1e3) +
                       " ms exceeds " + std::to_string(kMaxLagMs) + " ms");
  }
  const RegistryDelta coordinator =
      RegistryDelta::FromJson(stats_before->back(), stats_after->back());
  RegistryDelta backends;
  double subqueries = 0.0;
  for (size_t k = 0; k < kShards; ++k) {
    RegistryDelta one =
        RegistryDelta::FromJson((*stats_before)[k], (*stats_after)[k]);
    subqueries += one.Counter("gprq.net.server.subqueries");
    backends.Merge(one);
  }
  const double remote_queries = coordinator.Counter("gprq.remote.queries");
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  SetPagedIndexLayers(backends, remote_queries, report);
  report->Set("net.rtt_us", rtt.Mean() * 1e6, "us");
  report->Set("net.server_us", server.Mean() * 1e6, "us");
  report->Set("net.wire_us", (rtt.Mean() - server.Mean()) * 1e6, "us");
  report->Set("net.bytes_per_query", per(static_cast<double>(bytes), all),
              "B");
  report->Set("shard.routed_frac",
              per(subqueries, static_cast<double>(kShards) * remote_queries),
              "ratio");
  report->Set("shard.scatter_us",
              per(coordinator.HistSum("gprq.remote.scatter_nanos") * 1e-3,
                  coordinator.HistCount("gprq.remote.scatter_nanos")),
              "us");
  report->Set("remote.rpc_us",
              per(coordinator.HistSum("gprq.remote.rpc_nanos") * 1e-3,
                  coordinator.HistCount("gprq.remote.rpc_nanos")),
              "us");
  report->Set("remote.rpcs_per_query",
              per(coordinator.Counter("gprq.remote.rpcs"), remote_queries),
              "count");
  report->Set("remote.retries_per_query",
              per(coordinator.Counter("gprq.remote.retries"), remote_queries),
              "count");
  report->Set("remote.hedges_per_query",
              per(coordinator.Counter("gprq.remote.hedges"), remote_queries),
              "count");
  report->Set("remote.degraded_shards",
              coordinator.Counter("gprq.remote.degraded_shards"), "count");
  // The coordinator's request time outside the scatter (routing, merge,
  // encode), from the sums of its own two histograms.
  report->Set("remote.coordinator_self_us",
              per((coordinator.HistSum("gprq.net.request_nanos") -
                   coordinator.HistSum("gprq.remote.scatter_nanos")) *
                      1e-3,
                  remote_queries),
              "us");

  report->attempted += requests.size();
  report->failed += failed;
  report->mismatches += mismatches;
  Log("remote layers: open loop %zu queries at %.0f q/s over %zu "
      "connections (limit %.0f ms, generator p99 lag %.3f ms), closed loop "
      "%zu queries on one connection; oracle %.2f s; %llu failed, %llu "
      "differ from the reference",
      open_count, kOpenRate, kConnections, kLatencyLimitMs,
      lag.Quantile(0.99) * 1e3, closed_count, Now() - oracle_start,
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(mismatches));
  return Status::OK();
}
}  // namespace perfbench
