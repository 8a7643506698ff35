#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/stopwatch.h"
#include "exec/overload.h"
#include "fault/failpoint.h"
#include "obs/export.h"

namespace gprq::net {
namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// The event loop's readiness source: epoll, level-triggered, with per-fd
// read/write interest — O(ready) wakeups instead of O(connections) scans,
// the fan-in this front-end exists for.

struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

class Server::EpollPoller {
 public:
  /// Takes ownership of an epoll instance (epoll_create1's result).
  explicit EpollPoller(int epfd) : epfd_(epfd) {}
  ~EpollPoller() { ::close(epfd_); }

  EpollPoller(const EpollPoller&) = delete;
  EpollPoller& operator=(const EpollPoller&) = delete;

  void Add(int fd, bool read, bool write) {
    epoll_event event = Event(fd, read, write);
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &event);
  }
  void Mod(int fd, bool read, bool write) {
    epoll_event event = Event(fd, read, write);
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &event);
  }
  void Del(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Fills `events`; returns the count (0 on timeout, -1 on EINTR).
  int Wait(std::vector<PollerEvent>* events, int timeout_ms) {
    const int n = ::epoll_wait(epfd_, raw_, kMaxEvents, timeout_ms);
    if (n <= 0) return n;
    events->clear();
    for (int i = 0; i < n; ++i) {
      PollerEvent event;
      event.fd = raw_[i].data.fd;
      event.readable = (raw_[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      event.writable = (raw_[i].events & EPOLLOUT) != 0;
      event.error = (raw_[i].events & EPOLLERR) != 0;
      events->push_back(event);
    }
    return n;
  }

 private:
  static constexpr int kMaxEvents = 128;

  static epoll_event Event(int fd, bool read, bool write) {
    epoll_event event{};
    event.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
    event.data.fd = fd;
    return event;
  }

  const int epfd_;
  epoll_event raw_[kMaxEvents];
};

// ---------------------------------------------------------------------------

Status ServerOptions::Validate() const {
  if (submit_threads == 0) {
    return Status::InvalidArgument("submit_threads must be > 0");
  }
  if (max_inflight_per_conn == 0) {
    return Status::InvalidArgument("max_inflight_per_conn must be > 0");
  }
  if (max_frame_bytes < kFrameHeaderBytes) {
    return Status::InvalidArgument("max_frame_bytes too small");
  }
  if (max_connections == 0) {
    return Status::InvalidArgument("max_connections must be > 0");
  }
  if (drain_retry_after_seconds < 0.0) {
    return Status::InvalidArgument("drain_retry_after_seconds must be >= 0");
  }
  return Status::OK();
}

Result<std::unique_ptr<Server>> Server::Serve(core::QueryBackend* backend,
                                              const ServerOptions& options) {
  if (backend == nullptr) {
    return Status::InvalidArgument("backend must not be null");
  }
  GPRQ_RETURN_NOT_OK(options.Validate());
  Result<core::BackendInfo> info = backend->Describe();
  if (!info.ok()) return info.status();
  ServerOptions effective = options;
  if (!backend->concurrent_submitters()) effective.submit_threads = 1;
  std::unique_ptr<Server> server(new Server(backend, *info, effective));
  GPRQ_RETURN_NOT_OK(server->Start());
  return server;
}

Server::Server(core::QueryBackend* backend, core::BackendInfo info,
               const ServerOptions& options)
    : options_(options), backend_(backend), info_(info) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  metrics_.connections = registry.GetCounter("gprq.net.connections");
  metrics_.active_connections =
      registry.GetGauge("gprq.net.active_connections");
  metrics_.frames_in = registry.GetCounter("gprq.net.frames_in");
  metrics_.frames_out = registry.GetCounter("gprq.net.frames_out");
  metrics_.bytes_in = registry.GetCounter("gprq.net.bytes_in");
  metrics_.bytes_out = registry.GetCounter("gprq.net.bytes_out");
  metrics_.decode_errors = registry.GetCounter("gprq.net.decode_errors");
  metrics_.queries = registry.GetCounter("gprq.net.queries");
  metrics_.rejects = registry.GetCounter("gprq.net.rejects");
  metrics_.io_faults = registry.GetCounter("gprq.net.io_faults");
  metrics_.subqueries = registry.GetCounter("gprq.net.server.subqueries");
  metrics_.last_deadline_budget =
      registry.GetGauge("gprq.net.server.last_deadline_budget_micros");
  metrics_.request_nanos = registry.GetHistogram("gprq.net.request_nanos");
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparsable listen host '" +
                                   options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status status = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    const Status status = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(addr.sin_port);
  GPRQ_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    const Status status = Errno("pipe");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  GPRQ_RETURN_NOT_OK(SetNonBlocking(wake_read_fd_));
  GPRQ_RETURN_NOT_OK(SetNonBlocking(wake_write_fd_));

  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) return Errno("epoll_create1");
  poller_ = std::make_unique<EpollPoller>(epfd);
  poller_->Add(listen_fd_, /*read=*/true, /*write=*/false);
  poller_->Add(wake_read_fd_, /*read=*/true, /*write=*/false);

  loop_ = std::thread(&Server::LoopThread, this);
  for (size_t i = 0; i < options_.submit_threads; ++i) {
    submitters_.emplace_back(&Server::SubmitThread, this);
  }
  return Status::OK();
}

void Server::RequestDrain() {
  draining_.store(true, std::memory_order_relaxed);
  // write(2) is async-signal-safe; the loop wakes and notices the flag.
  const char byte = 'd';
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

bool Server::WaitDrained(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(drained_mutex_);
  if (timeout_seconds <= 0.0) {
    drained_cv_.wait(lock, [&] { return drained_; });
    return true;
  }
  return drained_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [&] { return drained_; });
}

void Server::Shutdown() {
  if (!stop_.exchange(true)) {
    Wake();
  }
  if (loop_.joinable()) loop_.join();
  {
    std::lock_guard<std::mutex> lock(work_mutex_);
    work_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : submitters_) {
    if (t.joinable()) t.join();
  }
  submitters_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_read_fd_ >= 0) {
    ::close(wake_read_fd_);
    wake_read_fd_ = -1;
  }
  if (wake_write_fd_ >= 0) {
    ::close(wake_write_fd_);
    wake_write_fd_ = -1;
  }
}

void Server::Wake() {
  const char byte = 'w';
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

// ---------------------------------------------------------------------------
// Event loop.

void Server::LoopThread() {
  std::vector<PollerEvent> events;
  while (!stop_.load(std::memory_order_relaxed)) {
    // Drain entry: close the listener exactly once so new connections are
    // refused while the in-flight ones finish.
    if (draining_.load(std::memory_order_relaxed) && !listener_closed_) {
      poller_->Del(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
      listener_closed_ = true;
    }
    if (draining_.load(std::memory_order_relaxed) && DrainComplete()) break;

    const int n = poller_->Wait(&events, /*timeout_ms=*/100);
    if (stop_.load(std::memory_order_relaxed)) break;
    if (n < 0) continue;  // EINTR
    for (const PollerEvent& event : events) {
      if (event.fd == listen_fd_) {
        AcceptNewConnections();
      } else if (event.fd == wake_read_fd_) {
        char buf[256];
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
      } else {
        HandleConnEvent(event.fd, event.readable, event.writable,
                        event.error);
      }
    }
    ProcessCompletions();
  }

  // Teardown (drain completed or hard stop): close every connection.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) CloseConn(&conns_[fd]);
  {
    std::lock_guard<std::mutex> lock(drained_mutex_);
    drained_ = true;
  }
  drained_cv_.notify_all();
}

bool Server::DrainComplete() const {
  if (total_inflight_ > 0) return false;
  for (const auto& [fd, conn] : conns_) {
    if (!conn.out.empty()) return false;
  }
  return true;
}

void Server::AcceptNewConnections() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient
    if (conns_.size() >= options_.max_connections ||
        !SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conn_fds_[conn.id] = fd;
    conns_[fd] = std::move(conn);
    poller_->Add(fd, /*read=*/true, /*write=*/false);
    metrics_.connections->Add();
    metrics_.active_connections->Set(static_cast<double>(conns_.size()));
  }
}

void Server::HandleConnEvent(int fd, bool readable, bool writable,
                             bool error) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // already closed this iteration
  Conn* conn = &it->second;
  if (error) {
    CloseConn(conn);
    return;
  }
  if (writable) {
    FlushConn(conn);
    it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = &it->second;
  }
  if (readable && conn->want_read) ReadConn(conn);
}

void Server::ReadConn(Conn* conn) {
  const Status injected = GPRQ_FAILPOINT("net.server.read");
  if (!injected.ok()) {
    metrics_.io_faults->Add();
    CloseConn(conn);
    return;
  }
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      metrics_.bytes_in->Add(static_cast<uint64_t>(n));
      conn->in.append(buf, static_cast<size_t>(n));
      if (!ParseFrames(conn)) return;
      if (!conn->want_read) return;  // pipelining cap reached mid-read
      if (static_cast<size_t>(n) < sizeof(buf)) return;
      continue;
    }
    if (n == 0) {
      // Peer closed. Bytes short of a full frame are a mid-frame
      // disconnect — a decode error by contract.
      if (!conn->in.empty()) metrics_.decode_errors->Add();
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    CloseConn(conn);
    return;
  }
}

bool Server::ParseFrames(Conn* conn) {
  // CloseConn erases the map entry `conn` points into; every step that may
  // close the connection is followed by a liveness probe on the captured
  // fd before `conn` is touched again.
  const int fd = conn->fd;
  size_t offset = 0;
  bool alive = true;
  while (!conn->close_after_flush) {
    if (conn->inflight >= options_.max_inflight_per_conn) {
      // Bounded pipelining: stop decoding (and reading) until completions
      // drain; ProcessCompletions re-enters to resume.
      conn->want_read = false;
      UpdateInterest(conn);
      break;
    }
    const size_t available = conn->in.size() - offset;
    if (available < kFrameHeaderBytes) break;
    const uint8_t* base =
        reinterpret_cast<const uint8_t*>(conn->in.data()) + offset;
    auto header = ParseFrameHeader(base, options_.max_frame_bytes);
    if (!header.ok()) {
      // The framing is poisoned: discard the stream, answer a
      // connection-level ERROR, close after flushing.
      metrics_.decode_errors->Add();
      offset = conn->in.size();
      FailConn(conn, header.status());
      alive = conns_.count(fd) != 0;
      break;
    }
    if (available < kFrameHeaderBytes + header->length) break;
    metrics_.frames_in->Add();
    DispatchFrame(conn, header->type, base + kFrameHeaderBytes,
                  header->length);
    alive = conns_.count(fd) != 0;
    if (!alive) break;
    offset += kFrameHeaderBytes + header->length;
  }
  if (alive && offset > 0) conn->in.erase(0, offset);
  return alive;
}

void Server::DispatchFrame(Conn* conn, FrameType type, const uint8_t* payload,
                           size_t size) {
  if (!IsClientFrame(type)) {
    metrics_.decode_errors->Add();
    FailConn(conn, Status::InvalidArgument("unexpected server-side frame"));
    return;
  }
  switch (type) {
    case FrameType::kHello: {
      auto hello = DecodeHelloPayload(payload, size);
      if (!hello.ok()) {
        metrics_.decode_errors->Add();
        FailConn(conn, hello.status());
        return;
      }
      if (hello->min_version > kProtocolVersion) {
        FailConn(conn, Status::InvalidArgument(
                           "no common protocol version (server speaks 1)"));
        return;
      }
      WelcomeFrame welcome;
      welcome.dim = info_.dim;
      welcome.points = info_.points;
      welcome.sharded = info_.sharded ? 1 : 0;
      welcome.num_shards = info_.num_shards;
      SendFrame(conn, EncodeWelcome(welcome));
      return;
    }
    case FrameType::kQuery: {
      auto query = DecodeQueryPayload(payload, size);
      if (!query.ok()) {
        metrics_.decode_errors->Add();
        // The frame itself was well-delimited, so the stream is intact:
        // answer a request-scoped ERROR when the id survived, else fail
        // the connection.
        uint64_t request_id = 0;
        if (size >= 8) std::memcpy(&request_id, payload, 8);
        if (request_id == 0) {
          FailConn(conn, query.status());
          return;
        }
        ErrorFrame error;
        error.request_id = request_id;
        error.status_code =
            static_cast<uint8_t>(query.status().code());
        error.message = query.status().message();
        SendFrame(conn, EncodeError(error));
        return;
      }
      if (draining_.load(std::memory_order_relaxed)) {
        RetryAfterFrame retry;
        retry.request_id = query->request_id;
        retry.retry_after_ms = static_cast<uint32_t>(
            options_.drain_retry_after_seconds * 1e3);
        retry.message = "server draining";
        metrics_.rejects->Add();
        SendFrame(conn, EncodeRetryAfter(retry));
        return;
      }
      metrics_.queries->Add();
      ++conn->inflight;
      ++total_inflight_;
      {
        std::lock_guard<std::mutex> lock(work_mutex_);
        work_queue_.push_back(Work{conn->id, std::move(*query)});
      }
      work_cv_.notify_one();
      return;
    }
    case FrameType::kStatsReq: {
      auto request = DecodeStatsRequestPayload(payload, size);
      if (!request.ok()) {
        metrics_.decode_errors->Add();
        FailConn(conn, request.status());
        return;
      }
      const obs::RegistrySnapshot snapshot =
          obs::MetricRegistry::Global().Snapshot();
      StatsFrame stats;
      stats.request_id = request->request_id;
      stats.format = request->format;
      stats.body = request->format == StatsFormat::kPrometheus
                       ? obs::TextExporter::Prometheus(snapshot)
                       : obs::TextExporter::Json(snapshot);
      SendFrame(conn, EncodeStats(stats));
      return;
    }
    default:
      return;  // unreachable: IsClientFrame filtered
  }
}

void Server::FailConn(Conn* conn, const Status& status) {
  ErrorFrame error;
  error.request_id = 0;  // connection-level
  error.status_code = static_cast<uint8_t>(status.code());
  error.message = status.message();
  conn->close_after_flush = true;
  conn->want_read = false;
  SendFrame(conn, EncodeError(error));
}

void Server::SendFrame(Conn* conn, std::string frame) {
  metrics_.frames_out->Add();
  conn->out.append(frame);
  FlushConn(conn);
}

void Server::FlushConn(Conn* conn) {
  while (!conn->out.empty()) {
    const Status injected = GPRQ_FAILPOINT("net.server.write");
    if (!injected.ok()) {
      metrics_.io_faults->Add();
      CloseConn(conn);
      return;
    }
    const ssize_t n =
        ::send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      metrics_.bytes_out->Add(static_cast<uint64_t>(n));
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  if (conn->out.empty() && conn->close_after_flush) {
    CloseConn(conn);
    return;
  }
  conn->want_write = !conn->out.empty();
  UpdateInterest(conn);
}

void Server::UpdateInterest(Conn* conn) {
  poller_->Mod(conn->fd, conn->want_read, conn->want_write);
}

void Server::CloseConn(Conn* conn) {
  const int fd = conn->fd;
  poller_->Del(fd);
  ::close(fd);
  conn_fds_.erase(conn->id);
  conns_.erase(fd);
  metrics_.active_connections->Set(static_cast<double>(conns_.size()));
}

void Server::ProcessCompletions() {
  while (true) {
    Completion completion;
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      if (completions_.empty()) return;
      completion = std::move(completions_.front());
      completions_.pop_front();
    }
    if (total_inflight_ > 0) --total_inflight_;
    auto fd_it = conn_fds_.find(completion.conn_id);
    if (fd_it == conn_fds_.end()) continue;  // connection died meanwhile
    const int fd = fd_it->second;  // CloseConn invalidates fd_it
    Conn* conn = &conns_[fd];
    if (conn->inflight > 0) --conn->inflight;
    const bool was_paused = !conn->want_read && !conn->close_after_flush;
    SendFrame(conn, std::move(completion.frame));
    if (conns_.count(fd) == 0) continue;  // send failed → closed
    if (was_paused && conn->inflight < options_.max_inflight_per_conn) {
      conn->want_read = true;
      UpdateInterest(conn);
      // Frames may already be buffered beyond the pause point; decode them
      // now instead of waiting for new bytes.
      ParseFrames(conn);
    }
  }
}

// ---------------------------------------------------------------------------
// Submitter threads.

void Server::SubmitThread() {
  while (true) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait(lock, [&] { return work_stop_ || !work_queue_.empty(); });
      if (work_queue_.empty()) {
        if (work_stop_) return;
        continue;
      }
      work = std::move(work_queue_.front());
      work_queue_.pop_front();
    }
    std::string frame = ExecuteQuery(work.query);
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      completions_.push_back(Completion{work.conn_id, std::move(frame)});
    }
    Wake();
  }
}

std::string Server::ExecuteQuery(const QueryFrame& wire) {
  Stopwatch stopwatch;
  const uint64_t request_id = wire.request_id;
  auto error_frame = [&](const Status& status) {
    ErrorFrame error;
    error.request_id = request_id;
    error.status_code = static_cast<uint8_t>(status.code());
    error.message = status.message();
    return EncodeError(error);
  };

  if ((wire.option_flags & kOptionShardSubquery) != 0) {
    metrics_.subqueries->Add();
  }
  metrics_.last_deadline_budget->Set(
      static_cast<double>(wire.deadline_micros));

  auto parsed = wire.ToQuery();
  if (!parsed.ok()) return error_frame(parsed.status());
  const core::PrqQuery& query = parsed->first;
  const core::PrqOptions& options = parsed->second;
  if (query.query_object.dim() != info_.dim) {
    return error_frame(Status::InvalidArgument(
        "query dimension " + std::to_string(query.query_object.dim()) +
        " does not match dataset dimension " + std::to_string(info_.dim)));
  }

  core::PrqStats stats;
  Result<core::PrqResult> outcome =
      backend_->ExecuteQueryBounded(query, options, &stats);
  if (!outcome.ok()) return error_frame(outcome.status());
  core::PrqResult result = std::move(*outcome);
  metrics_.request_nanos->Record(stopwatch.ElapsedNanos());

  // A shed query did no work and carries the admission controller's
  // retry_after_ms hint — surface it as the dedicated backoff frame so
  // clients never have to parse a status message.
  if (result.status.code() == StatusCode::kResourceExhausted &&
      result.ids.empty() && result.undecided.empty() &&
      exec::RetryAfterSeconds(result.status, /*fallback=*/-1.0) >= 0.0) {
    RetryAfterFrame retry;
    retry.request_id = request_id;
    retry.retry_after_ms = static_cast<uint32_t>(
        exec::RetryAfterSeconds(result.status) * 1e3);
    retry.message = result.status.message();
    metrics_.rejects->Add();
    return EncodeRetryAfter(retry);
  }

  ResponseFrame response;
  response.request_id = request_id;
  response.status_code = static_cast<uint8_t>(result.status.code());
  response.message = result.status.message();
  response.ids = std::move(result.ids);
  response.undecided = std::move(result.undecided);
  response.server_micros = stopwatch.ElapsedNanos() / 1000;
  response.integrations = stats.integration_candidates;
  return EncodeResponse(response);
}

}  // namespace gprq::net
