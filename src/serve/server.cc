#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "serve/json.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/logging.h"

namespace dial::serve {

ssize_t ReadRetry(int fd, void* buf, size_t len) {
  while (true) {
    // Injected EINTR storm: exercises this loop's retry path end-to-end
    // (the injector's consecutive-hit cap bounds the storm, so p=1.0 still
    // terminates).
    if (util::FaultInjector::Armed() &&
        util::FaultInjector::Global().ShouldFail(util::FaultSite::kSocketRecv)) {
      errno = EINTR;
      continue;
    }
    const ssize_t n = ::read(fd, buf, len);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

bool SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    if (util::FaultInjector::Armed() &&
        util::FaultInjector::Global().ShouldFail(util::FaultSite::kSocketSend)) {
      errno = EINTR;  // injected interrupted send; the loop must retry
      continue;
    }
    const ssize_t n = ::send(fd, data + sent, len - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // peer went away
    sent += static_cast<size_t>(n);
  }
  return true;
}

namespace {

util::StatusOr<ServeRequest> ParseRequest(const JsonValue& obj) {
  if (!obj.is_object()) {
    return util::Status::InvalidArgument("request must be a JSON object");
  }
  ServeRequest req;
  req.id = obj.GetString("id", "");
  const double deadline = obj.GetNumber("deadline_ms", -1.0);
  if (deadline >= 0) {
    if (deadline > 86'400'000.0) {  // > 1 day is a client bug, not a deadline
      return util::Status::InvalidArgument("'deadline_ms' out of range");
    }
    req.deadline_ms = static_cast<int64_t>(deadline);
  }
  const std::string op = obj.GetString("op", "");
  if (op == "match") {
    req.op = ServeOp::kMatch;
    const JsonValue* r = obj.Get("r");
    const JsonValue* s = obj.Get("s");
    if (r != nullptr || s != nullptr) {
      if (r == nullptr || s == nullptr || !r->is_number() || !s->is_number()) {
        return util::Status::InvalidArgument("match needs numeric 'r' and 's'");
      }
      req.r_id = static_cast<int64_t>(r->AsNumber());
      req.s_id = static_cast<int64_t>(s->AsNumber());
      if (req.r_id < 0 || req.s_id < 0) {
        return util::Status::InvalidArgument("record ids must be >= 0");
      }
    } else {
      const JsonValue* rt = obj.Get("r_text");
      const JsonValue* st = obj.Get("s_text");
      if (rt == nullptr || st == nullptr || !rt->is_string() || !st->is_string()) {
        return util::Status::InvalidArgument(
            "match needs ('r','s') ids or ('r_text','s_text') strings");
      }
      req.r_text = rt->AsString();
      req.s_text = st->AsString();
    }
    return req;
  }
  if (op == "topk" || op == "embed") {
    req.op = op == "topk" ? ServeOp::kTopK : ServeOp::kEmbed;
    const JsonValue* text = obj.Get("text");
    if (text == nullptr || !text->is_string()) {
      return util::Status::InvalidArgument(op + " needs a 'text' string");
    }
    req.text = text->AsString();
    const double k = obj.GetNumber("k", 10.0);
    if (k < 1 || k > 4096) {
      return util::Status::InvalidArgument("'k' out of range");
    }
    req.k = static_cast<size_t>(k);
    return req;
  }
  if (op == "upsert" || op == "retire") {
    req.op = op == "upsert" ? ServeOp::kUpsert : ServeOp::kRetire;
    const JsonValue* r = obj.Get("r");
    if (r == nullptr || !r->is_number() || r->AsNumber() < 0) {
      return util::Status::InvalidArgument(op + " needs a numeric 'r' >= 0");
    }
    req.r_id = static_cast<int64_t>(r->AsNumber());
    if (req.op == ServeOp::kUpsert) {
      const JsonValue* text = obj.Get("text");
      if (text == nullptr || !text->is_string()) {
        return util::Status::InvalidArgument("upsert needs a 'text' string");
      }
      req.text = text->AsString();
    }
    return req;
  }
  return util::Status::InvalidArgument("unknown op '" + op + "'");
}

}  // namespace

Server::Server(ServingBundle* bundle, ServerOptions options)
    : bundle_(bundle), options_(std::move(options)) {}

Server::~Server() { Stop(); }

util::Status Server::Start() {
  const size_t workers = std::max<size_t>(1, options_.scheduler.num_workers);
  contexts_.clear();
  for (size_t i = 0; i < workers; ++i) {
    contexts_.push_back(std::make_unique<autograd::InferenceContext>());
  }
  scheduler_ = std::make_unique<Scheduler>(
      options_.scheduler, [this](size_t worker_id, std::vector<Scheduler::Pending>&& batch) {
        ExecuteBatch(worker_id, std::move(batch));
      });

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError("socket(): " + std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return util::Status::InvalidArgument("socket path too long: " + options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return util::Status::IoError("bind(" + options_.socket_path +
                                 "): " + std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return util::Status::IoError("listen(): " + std::string(std::strerror(errno)));
  }
  start_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::OK();
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    std::unique_lock<std::mutex> lock(conn_mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ConnectionLoop(fd); });
  }
}

void Server::ConnectionLoop(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ReadRetry(fd, chunk, sizeof(chunk));
    if (n <= 0) break;  // EOF, real error, or shutdown() — EINTR retried inside
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty()) HandleLine(fd, line);
    }
  }
}

void Server::HandleLine(int fd, const std::string& line) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) {
    SendLine(fd, RenderResponse(ErrorResponse("", ServeOp::kMatch, parsed.status())));
    return;
  }
  const JsonValue& obj = parsed.value();
  const std::string op = obj.is_object() ? obj.GetString("op", "") : "";
  const std::string id = obj.is_object() ? obj.GetString("id", "") : "";

  if (op == "stats") {
    const SchedulerStats stats = scheduler_->stats();
    JsonValue out = JsonValue::Object();
    out.Set("id", JsonValue::Str(id));
    out.Set("status", JsonValue::Str("ok"));
    out.Set("submitted", JsonValue::Number(static_cast<double>(stats.submitted)));
    out.Set("rejected", JsonValue::Number(static_cast<double>(stats.rejected)));
    out.Set("batches", JsonValue::Number(static_cast<double>(stats.batches)));
    out.Set("requests_executed",
            JsonValue::Number(static_cast<double>(stats.requests_executed)));
    out.Set("deadline_flushes",
            JsonValue::Number(static_cast<double>(stats.deadline_flushes)));
    out.Set("deadline_expired",
            JsonValue::Number(static_cast<double>(stats.deadline_expired)));
    out.Set("max_batch_observed",
            JsonValue::Number(static_cast<double>(stats.max_batch_observed)));
    out.Set("mean_batch_size", JsonValue::Number(stats.mean_batch_size()));
    SendLine(fd, out.Dump());
    return;
  }
  if (op == "health") {
    // Answered inline off the connection thread, never queued: a health
    // probe must get through precisely when the scheduler is too backed up
    // to answer anything else.
    const SchedulerStats stats = scheduler_->stats();
    const int64_t now_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    JsonValue out = JsonValue::Object();
    out.Set("id", JsonValue::Str(id));
    out.Set("status", JsonValue::Str("ok"));
    out.Set("healthy", JsonValue::Bool(stats.stalled_workers == 0));
    out.Set("uptime_s", JsonValue::Number(
                            static_cast<double>(now_us - start_us_) / 1e6));
    out.Set("workers",
            JsonValue::Number(static_cast<double>(scheduler_->num_workers())));
    out.Set("busy_workers",
            JsonValue::Number(static_cast<double>(stats.busy_workers)));
    out.Set("stalled_workers",
            JsonValue::Number(static_cast<double>(stats.stalled_workers)));
    out.Set("queue_depth",
            JsonValue::Number(static_cast<double>(stats.queue_depth)));
    out.Set("rejected", JsonValue::Number(static_cast<double>(stats.rejected)));
    out.Set("deadline_expired",
            JsonValue::Number(static_cast<double>(stats.deadline_expired)));
    out.Set("bundle_fingerprint",
            JsonValue::Str(util::HexDigest(bundle_->fingerprint())));
    SendLine(fd, out.Dump());
    return;
  }
  if (op == "shutdown") {
    JsonValue out = JsonValue::Object();
    out.Set("id", JsonValue::Str(id));
    out.Set("status", JsonValue::Str("ok"));
    SendLine(fd, out.Dump());
    {
      std::unique_lock<std::mutex> lock(shutdown_mu_);
      shutdown_requested_ = true;
    }
    shutdown_cv_.notify_all();
    return;
  }

  auto request = ParseRequest(obj);
  if (!request.ok()) {
    SendLine(fd, RenderResponse(ErrorResponse(id, ServeOp::kMatch, request.status())));
    return;
  }
  const ServeOp req_op = request.value().op;
  const bool accepted = scheduler_->Submit(
      std::move(request).value(),
      [this, fd](ServeResponse response) {
        QueueOrSendLine(fd, RenderResponse(response));
      });
  if (!accepted) {
    ServeResponse overload;
    overload.id = id;
    overload.op = req_op;
    overload.status = util::Status::Unavailable("scheduler ring full");
    overload.retry_after_ms = scheduler_->RetryAfterMsHint();
    SendLine(fd, RenderResponse(overload));
  }
}

namespace {
/// Active per-batch send buffer (fd -> framed lines); set for the duration
/// of ExecuteBatch on the executing worker thread only.
thread_local std::vector<std::pair<int, std::string>>* batch_sends = nullptr;
}  // namespace

void Server::QueueOrSendLine(int fd, const std::string& line) {
  if (batch_sends != nullptr) {
    for (auto& [buf_fd, data] : *batch_sends) {
      if (buf_fd == fd) {
        data += line;
        data += '\n';
        return;
      }
    }
    batch_sends->emplace_back(fd, line + "\n");
    return;
  }
  SendLine(fd, line);
}

void Server::ExecuteBatch(size_t worker_id,
                          std::vector<Scheduler::Pending>&& batch) {
  autograd::InferenceContext& ctx = *contexts_[worker_id];
  const size_t n = batch.size();
  // Coalesce the batch's responses per connection: callbacks below append to
  // this buffer and each client gets its whole share of the batch in one
  // send() at the end (see QueueOrSendLine).
  std::vector<std::pair<int, std::string>> sends;
  batch_sends = &sends;
  const ServeOp op = batch.front().request.op;
  switch (op) {
    case ServeOp::kMatch: {
      // The dynamic-batching payoff: every queued match in this batch runs
      // through one PredictProbsWith call — one GEMM per linear sublayer
      // across all requests.
      std::vector<data::PairId> by_id;
      std::vector<std::pair<std::string, std::string>> by_text;
      std::vector<int> slot;  // >=0: index into by_id results; <0: ~index into by_text
      bool id_error = false;
      for (const auto& pending : batch) {
        const ServeRequest& req = pending.request;
        if (req.r_id >= 0) {
          slot.push_back(static_cast<int>(by_id.size()));
          by_id.push_back(data::PairId{static_cast<uint32_t>(req.r_id),
                                       static_cast<uint32_t>(req.s_id)});
        } else {
          slot.push_back(~static_cast<int>(by_text.size()));
          by_text.emplace_back(req.r_text, req.s_text);
        }
      }
      util::StatusOr<std::vector<float>> id_probs = std::vector<float>{};
      if (!by_id.empty()) {
        id_probs = bundle_->MatchPairs(ctx, by_id);
        id_error = !id_probs.ok();
      }
      std::vector<float> text_probs;
      if (!by_text.empty()) text_probs = bundle_->MatchTexts(ctx, by_text);
      for (size_t i = 0; i < n; ++i) {
        ServeResponse response;
        response.id = batch[i].request.id;
        response.op = ServeOp::kMatch;
        response.batch_size = n;
        if (slot[i] >= 0) {
          if (id_error) {
            response.status = id_probs.status();
          } else {
            response.prob = id_probs.value()[static_cast<size_t>(slot[i])];
          }
        } else {
          response.prob = text_probs[static_cast<size_t>(~slot[i])];
        }
        batch[i].callback(std::move(response));
      }
      break;
    }
    case ServeOp::kEmbed: {
      std::vector<std::string> texts;
      texts.reserve(n);
      for (const auto& pending : batch) texts.push_back(pending.request.text);
      const la::Matrix emb = bundle_->EmbedTexts(ctx, texts);
      for (size_t i = 0; i < n; ++i) {
        ServeResponse response;
        response.id = batch[i].request.id;
        response.op = ServeOp::kEmbed;
        response.batch_size = n;
        response.embedding.assign(emb.row(i), emb.row(i) + emb.cols());
        batch[i].callback(std::move(response));
      }
      break;
    }
    case ServeOp::kTopK: {
      for (size_t i = 0; i < n; ++i) {
        const ServeRequest& req = batch[i].request;
        ServeResponse response;
        response.id = req.id;
        response.op = ServeOp::kTopK;
        response.batch_size = n;
        for (const TopKHit& hit : bundle_->TopK(ctx, req.text, req.k)) {
          response.neighbors.push_back(TopKResult{hit.r_id, hit.distance});
        }
        batch[i].callback(std::move(response));
      }
      break;
    }
    case ServeOp::kUpsert:
    case ServeOp::kRetire: {
      // Mutations run one at a time (the bundle serializes them anyway);
      // batching buys nothing here and per-request statuses keep failures
      // attributable.
      for (size_t i = 0; i < n; ++i) {
        const ServeRequest& req = batch[i].request;
        ServeResponse response;
        response.id = req.id;
        response.op = op;
        response.batch_size = n;
        if (op == ServeOp::kUpsert) {
          response.status =
              bundle_->Upsert(ctx, static_cast<uint32_t>(req.r_id), req.text);
        } else {
          response.status = bundle_->Retire(static_cast<uint32_t>(req.r_id));
        }
        response.live = bundle_->live_r_records();
        batch[i].callback(std::move(response));
      }
      break;
    }
  }
  batch_sends = nullptr;
  for (const auto& [fd, data] : sends) SendFramed(fd, data);
}

ServeResponse Server::ErrorResponse(std::string id, ServeOp op, util::Status status) {
  ServeResponse response;
  response.id = std::move(id);
  response.op = op;
  response.status = std::move(status);
  return response;
}

std::string Server::RenderResponse(const ServeResponse& response) const {
  JsonValue out = JsonValue::Object();
  out.Set("id", JsonValue::Str(response.id));
  if (!response.status.ok()) {
    // Wire status by code, not message text: kUnavailable is the transient
    // back-off signal, kDeadlineExceeded means the deadline the client set
    // passed before execution; everything else is a real error.
    switch (response.status.code()) {
      case util::StatusCode::kUnavailable:
        out.Set("status", JsonValue::Str("overload"));
        out.Set("retry_after_ms", JsonValue::Number(static_cast<double>(
                                      response.retry_after_ms)));
        break;
      case util::StatusCode::kDeadlineExceeded:
        out.Set("status", JsonValue::Str("deadline_exceeded"));
        break;
      default:
        out.Set("status", JsonValue::Str("error"));
        out.Set("message", JsonValue::Str(response.status.message()));
        break;
    }
    return out.Dump();
  }
  out.Set("status", JsonValue::Str("ok"));
  out.Set("batch_size", JsonValue::Number(static_cast<double>(response.batch_size)));
  switch (response.op) {
    case ServeOp::kMatch: {
      // Emit the float through %.9g manually so the wire value round-trips
      // to the exact bits PredictProbs produced (Dump's %.17g would too, but
      // the tests pin this exact formatting as the protocol contract).
      std::string json = out.Dump();
      json.pop_back();  // '}'
      json += ",\"prob\":" + FloatToJson(response.prob) + "}";
      return json;
    }
    case ServeOp::kEmbed: {
      std::string json = out.Dump();
      json.pop_back();
      json += ",\"embedding\":[";
      for (size_t i = 0; i < response.embedding.size(); ++i) {
        if (i > 0) json.push_back(',');
        json += FloatToJson(response.embedding[i]);
      }
      json += "]}";
      return json;
    }
    case ServeOp::kTopK: {
      std::string json = out.Dump();
      json.pop_back();
      json += ",\"neighbors\":[";
      for (size_t i = 0; i < response.neighbors.size(); ++i) {
        if (i > 0) json.push_back(',');
        json += "{\"r\":" + std::to_string(response.neighbors[i].r_id) +
                ",\"distance\":" + FloatToJson(response.neighbors[i].distance) + "}";
      }
      json += "]}";
      return json;
    }
    case ServeOp::kUpsert:
    case ServeOp::kRetire: {
      out.Set("live", JsonValue::Number(static_cast<double>(response.live)));
      return out.Dump();
    }
  }
  return out.Dump();
}

void Server::SendLine(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  SendFramed(fd, framed);
}

void Server::SendFramed(int fd, const std::string& framed) {
  std::unique_lock<std::mutex> lock(write_mu_);
  // SendAll loops partial writes and retries EINTR; a failed send means the
  // peer went away — nothing to do.
  SendAll(fd, framed.data(), framed.size());
}

void Server::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Server::RequestShutdown() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

SchedulerStats Server::scheduler_stats() const {
  // Stop() destroys the scheduler but preserves its final counters, so the
  // bench/tool can report after a clean shutdown.
  return scheduler_ != nullptr ? scheduler_->stats() : final_stats_;
}

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  // Wake the accept thread with shutdown(), join it, and only then close
  // and clear the fd: closing (or writing -1) while AcceptLoop may still
  // read listen_fd_ for its next accept() is a data race, and a close
  // under a concurrent accept() could even hit a reused fd number.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Let queued requests finish before tearing down connections, so every
  // accepted request gets its response.
  if (scheduler_ != nullptr) scheduler_->Drain();
  std::vector<int> fds;
  std::vector<std::thread> threads;
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    fds.swap(conn_fds_);
    threads.swap(conn_threads_);
  }
  for (int fd : fds) ::shutdown(fd, SHUT_RDWR);
  for (auto& thread : threads) thread.join();
  for (int fd : fds) ::close(fd);
  if (scheduler_ != nullptr) final_stats_ = scheduler_->stats();
  scheduler_.reset();  // joins dispatcher + workers
  ::unlink(options_.socket_path.c_str());
}

}  // namespace dial::serve
