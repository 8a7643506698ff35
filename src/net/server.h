#ifndef GPRQ_NET_SERVER_H_
#define GPRQ_NET_SERVER_H_

// The GPRQ network front-end: an event-loop TCP server that multiplexes
// many client connections onto one core::QueryBackend — the single-tree
// exec::BatchExecutor, the shard::ShardedPrqEngine or the
// remote::RemoteShardedEngine coordinator — speaking the GPRQ/1 protocol
// of net/protocol.h.
//
// Threading model (see DESIGN.md §11):
//  * One event-loop thread owns every socket: it accepts, reads, frames,
//    decodes, and writes, woken by epoll (the tree builds on Linux only:
//    the socket code relies on MSG_NOSIGNAL).
//  * A small pool of submitter threads executes decoded queries against
//    the backend (ExecuteQueryBounded is a blocking call; it must never
//    run on the loop thread). Finished responses post to a completion
//    queue and a self-pipe wakes the loop to write them out. The one
//    submitter rule is the backend's concurrent_submitters(): a governed
//    executor (OverloadPolicy installed) says true, so several submitters
//    give admission control a concurrent arrival stream; every other
//    backend says false and the server runs one submitter.
//  * Per-connection pipelining is bounded: once a connection has
//    max_inflight_per_conn requests executing, the loop stops decoding
//    (and reading) from it until completions drain — TCP backpressure
//    instead of unbounded queues. Responses may interleave across
//    requests; clients match them by request_id.
//
// Graceful drain: RequestDrain() (async-signal-safe — the gprq_server
// binary calls it from the SIGTERM handler) closes the listener, answers
// new QUERY frames with RETRY_AFTER, lets in-flight queries finish,
// flushes every response, then shuts the loop down; WaitDrained() blocks
// until that point.
//
// Observability: gprq.net.* metrics (connections, frames, bytes, decode
// errors, queries, rejects, request latency) plus the STATS frame, which
// returns the whole obs::MetricRegistry export (JSON or Prometheus) over
// the wire.
//
// Fault injection: `net.server.read` / `net.server.write` failpoints wrap
// the socket syscalls; an injected fault degrades exactly one connection
// (it is closed; its in-flight work completes into the void), never the
// server.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/query_backend.h"
#include "net/protocol.h"
#include "obs/metrics.h"

namespace gprq::net {

struct ServerOptions {
  /// Listen address. The default binds loopback; "0.0.0.0" serves a LAN.
  std::string host = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port; read it back via port().
  uint16_t port = 0;
  /// Submitter threads executing queries against the backend. Forced to 1
  /// unless the backend's concurrent_submitters() is true.
  size_t submit_threads = 2;
  /// Requests of one connection allowed in execution at once; beyond it
  /// the loop stops reading that connection (TCP backpressure).
  size_t max_inflight_per_conn = 32;
  /// Frames longer than this are rejected at the header, pre-allocation.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Connections beyond this are accepted and immediately closed.
  size_t max_connections = 1024;
  /// retry_after_ms answered to queries arriving while draining.
  double drain_retry_after_seconds = 1.0;

  Status Validate() const;
};

class Server {
 public:
  /// Serves `backend` (not owned; it must outlive the server). Fails with
  /// InvalidArgument for a null backend or one whose Describe() fails (a
  /// detached executor), and with IoError when the address cannot be
  /// bound or the epoll instance cannot be created. Binds, listens and starts the threads before returning;
  /// submit_threads is forced to 1 unless backend->concurrent_submitters().
  static Result<std::unique_ptr<Server>> Serve(core::QueryBackend* backend,
                                               const ServerOptions& options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves port 0 to the kernel's pick).
  uint16_t port() const { return port_; }

  const core::BackendInfo& info() const { return info_; }

  /// Begins graceful drain: stop accepting, reject new queries with
  /// RETRY_AFTER, finish in-flight work, flush responses, stop. Safe from
  /// any thread *and* from a signal handler (one atomic store + one
  /// write(2) on the self-pipe).
  void RequestDrain();

  /// Blocks until a drain (or shutdown) completed; false on timeout.
  /// timeout_seconds <= 0 waits forever.
  bool WaitDrained(double timeout_seconds);

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Hard stop: abandons pending work (in-flight queries still finish on
  /// the submitters before their threads join), closes every connection.
  /// Idempotent; the destructor calls it.
  void Shutdown();

 private:
  /// One live client connection, owned by the loop thread.
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    std::string in;   // received, not yet framed
    std::string out;  // encoded, not yet written
    size_t inflight = 0;
    bool want_read = true;
    bool want_write = false;
    bool close_after_flush = false;
  };

  struct Work {
    uint64_t conn_id = 0;
    QueryFrame query;
  };

  struct Completion {
    uint64_t conn_id = 0;
    std::string frame;
  };

  struct Metrics {
    obs::Counter* connections;
    obs::Gauge* active_connections;
    obs::Counter* frames_in;
    obs::Counter* frames_out;
    obs::Counter* bytes_in;
    obs::Counter* bytes_out;
    obs::Counter* decode_errors;
    obs::Counter* queries;
    obs::Counter* rejects;
    obs::Counter* io_faults;
    obs::Counter* subqueries;
    /// Deadline budget µs of the most recent QUERY frame, as received on
    /// the wire — the clamp regression test reads this to prove the client
    /// tightened the budget before sending.
    obs::Gauge* last_deadline_budget;
    obs::Histogram* request_nanos;
  };

  class EpollPoller;

  Server(core::QueryBackend* backend, core::BackendInfo info,
         const ServerOptions& options);

  Status Start();
  void LoopThread();
  void SubmitThread();

  // -- loop-thread helpers (own conns_) ------------------------------------
  void AcceptNewConnections();
  void HandleConnEvent(int fd, bool readable, bool writable, bool error);
  void ReadConn(Conn* conn);
  /// Frames and dispatches everything complete in conn->in. Returns false
  /// when the connection was closed.
  bool ParseFrames(Conn* conn);
  void DispatchFrame(Conn* conn, FrameType type, const uint8_t* payload,
                     size_t size);
  void SendFrame(Conn* conn, std::string frame);
  void FlushConn(Conn* conn);
  void CloseConn(Conn* conn);
  /// Connection-level decode error: ERROR frame, then close after flush.
  void FailConn(Conn* conn, const Status& status);
  void UpdateInterest(Conn* conn);
  void ProcessCompletions();
  void Wake();
  /// True once draining and every response has been flushed.
  bool DrainComplete() const;

  // -- submit-thread helpers -----------------------------------------------
  /// Runs one query against the backend and encodes the reply frame.
  std::string ExecuteQuery(const QueryFrame& wire);

  const ServerOptions options_;
  core::QueryBackend* const backend_;
  const core::BackendInfo info_;

  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::unique_ptr<EpollPoller> poller_;

  std::thread loop_;
  std::vector<std::thread> submitters_;

  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<Work> work_queue_;
  bool work_stop_ = false;

  std::mutex completion_mutex_;
  std::deque<Completion> completions_;

  // Loop-thread state.
  std::unordered_map<int, Conn> conns_;          // by fd
  std::unordered_map<uint64_t, int> conn_fds_;   // id → fd
  uint64_t next_conn_id_ = 1;
  size_t total_inflight_ = 0;
  bool listener_closed_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  std::mutex drained_mutex_;
  std::condition_variable drained_cv_;
  bool drained_ = false;

  Metrics metrics_;
};

}  // namespace gprq::net

#endif  // GPRQ_NET_SERVER_H_
