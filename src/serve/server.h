#ifndef DIAL_SERVE_SERVER_H_
#define DIAL_SERVE_SERVER_H_

#include <sys/types.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.h"
#include "serve/serving_bundle.h"

/// \file
/// The dial_serve front end: a unix-domain-socket server speaking
/// newline-delimited JSON, one request object per line, one response object
/// per line (matched by client-chosen "id"). Connection readers push parsed
/// requests into the Scheduler; batches execute on the scheduler's worker
/// pool, each worker scoring through the shared read-only ServingBundle
/// with its own InferenceContext.
///
/// Protocol (all requests: {"op": ..., "id": ...}):
///   {"op":"match","id":"1","r":3,"s":7}            -> {"id":"1","status":"ok","prob":...}
///   {"op":"match","id":"2","r_text":"..","s_text":".."}
///   {"op":"topk","id":"3","text":"..","k":5}       -> {... "neighbors":[{"r":..,"distance":..}]}
///   {"op":"embed","id":"4","text":".."}            -> {... "embedding":[..]}
///   {"op":"upsert","id":"5","r":3,"text":".."}     -> {... "live":N} replaces record r's
///                                                     text + index entry in place
///   {"op":"retire","id":"6","r":3}                 -> {... "live":N} tombstones record r
///                                                     (topk never returns it again)
///   {"op":"stats","id":"7"}                        -> scheduler counters (answered inline)
///   {"op":"health","id":"8"}                       -> liveness: uptime, queue depth, worker
///                                                     state, shed counters, bundle fingerprint
///   {"op":"shutdown","id":"9"}                     -> acks, then stops the server
/// Any scheduler-bound request may carry "deadline_ms": a request still
/// queued when its deadline passes is shed with
/// {"status":"deadline_exceeded"} instead of executed.
/// Errors: {"id":..,"status":"error","message":..}; a full ring responds
/// {"status":"overload","retry_after_ms":N} (suggested back-off). Floats are
/// emitted with %.9g, so parsing the wire value back to float reproduces the
/// exact bits the model produced.

namespace dial::serve {

/// EINTR-safe blocking read: retries when a signal interrupts the call
/// before any data arrived, otherwise returns read()'s result (0 = EOF,
/// < 0 = real error). A plain ::read here would tear down a healthy
/// connection whenever a signal (profiler tick, SIGCHLD from a subprocess)
/// landed mid-wait.
ssize_t ReadRetry(int fd, void* buf, size_t len);

/// Sends the entire buffer: loops over short writes and retries EINTR.
/// Short writes are real on large coalesced responses (a batch's worth of
/// embed rows overflows the socket buffer) — a single send() would
/// silently truncate mid-line and desync the newline framing. Returns
/// false when the peer is gone (any error other than EINTR).
bool SendAll(int fd, const char* data, size_t len);

struct ServerOptions {
  std::string socket_path;
  SchedulerOptions scheduler;
  /// Numeric mode for every worker's inference context (autograd::Precision).
  /// int8 trades the wire-exact match-score parity with in-process fp32
  /// scoring for throughput; fp32 (default) keeps bit-exactness.
  autograd::Precision precision = autograd::Precision::kFloat32;
};

class Server {
 public:
  /// The bundle must outlive the server. Non-const: upsert/retire requests
  /// mutate its member indexes (internally synchronized — see
  /// serving_bundle.h).
  Server(ServingBundle* bundle, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts the accept loop + scheduler.
  util::Status Start();

  /// Blocks until a shutdown request arrives (or Stop is called).
  void WaitForShutdown();

  /// Unblocks WaitForShutdown as if a shutdown request had arrived — the
  /// SIGTERM/SIGINT path (called from a watcher thread, not the handler
  /// itself). The caller then runs Stop(), which drains queued requests
  /// before tearing connections down.
  void RequestShutdown();

  /// Idempotent: closes the listener and every connection, drains workers.
  void Stop();

  const std::string& socket_path() const { return options_.socket_path; }
  SchedulerStats scheduler_stats() const;

 private:
  void AcceptLoop();
  void ConnectionLoop(int fd);
  void ExecuteBatch(size_t worker_id, std::vector<Scheduler::Pending>&& batch);
  /// Parses one request line; returns an error response directly on bad
  /// input, otherwise queues onto the scheduler.
  void HandleLine(int fd, const std::string& line);
  void SendLine(int fd, const std::string& line);
  /// Writes an already-newline-framed blob in one send.
  void SendFramed(int fd, const std::string& framed);
  /// Inside ExecuteBatch, appends to the batch's per-connection send buffer
  /// (all of a batch's responses to one client leave in a single syscall —
  /// pipelined clients then read them in one wakeup); elsewhere sends
  /// directly.
  void QueueOrSendLine(int fd, const std::string& line);

  static ServeResponse ErrorResponse(std::string id, ServeOp op, util::Status status);
  std::string RenderResponse(const ServeResponse& response) const;

  ServingBundle* bundle_;
  ServerOptions options_;
  std::unique_ptr<Scheduler> scheduler_;
  /// One context per scheduler worker, indexed by worker_id; each runs its
  /// batch's forward inline on that worker.
  std::vector<std::unique_ptr<autograd::InferenceContext>> contexts_;

  int listen_fd_ = -1;
  /// Steady-clock µs at Start() — the health op's uptime base.
  int64_t start_us_ = 0;
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
  std::mutex write_mu_;  // one writer at a time per process; lines stay whole

  /// Final counters snapshotted by Stop() before the scheduler is torn down.
  SchedulerStats final_stats_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  std::atomic<bool> stopping_{false};
};

}  // namespace dial::serve

#endif  // DIAL_SERVE_SERVER_H_
