// dial_serve — online matching service over a unix-domain socket.
//
// Loads (or trains and saves) a ServingBundle, then answers newline-
// delimited JSON requests with cross-request dynamic batching: concurrent
// match/embed requests are packed into one batched engine forward, so the
// linear sublayers run as a single GEMM across requests. See
// src/serve/server.h for the protocol.
//
// Typical session:
//   dial_serve --dataset=walmart_amazon --scale=smoke
//       --bundle=/tmp/wa.bundle --socket=/tmp/dial.sock
//   # elsewhere:
//   printf '{"op":"match","id":"1","r":3,"s":7}\n' | nc -U /tmp/dial.sock
//
// --self_test starts the server, drives a client session against it
// (match/topk/embed/upsert/retire/health/deadline-expiry/stats/shutdown),
// then re-serves and exercises the SIGTERM drain path, and exits 0 on
// success — the CI smoke for the binary.
//
// SIGTERM/SIGINT stop the server cleanly: queued requests drain, every
// accepted request gets its response, and the socket file is removed.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.h"
#include "serve/server.h"
#include "util/flags.h"

namespace {

using dial::serve::JsonValue;

/// Self-pipe carrying shutdown signals out of async-signal context: the
/// handler does the one thing that is safe (write a byte); a watcher thread
/// turns the byte into Server::RequestShutdown(), where mutexes are legal.
int g_signal_pipe[2] = {-1, -1};

extern "C" void HandleShutdownSignal(int /*signum*/) {
  const char byte = 1;
  // A full pipe just means a shutdown is already pending; ignore the result.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Installs SIGTERM/SIGINT -> self-pipe and returns the watcher thread that
/// forwards the first signal to RequestShutdown. Join after closing the
/// pipe's write end (which unblocks the watcher on signal-free shutdowns).
std::thread WatchShutdownSignals(dial::serve::Server& server) {
  DIAL_CHECK(::pipe(g_signal_pipe) == 0) << std::strerror(errno);
  struct sigaction sa{};
  sa.sa_handler = HandleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  return std::thread([&server] {
    char byte;
    if (dial::serve::ReadRetry(g_signal_pipe[0], &byte, 1) > 0) {
      server.RequestShutdown();
    }
  });
}

void JoinShutdownWatcher(std::thread& watcher) {
  ::close(g_signal_pipe[1]);  // EOF unblocks the watcher if no signal came
  watcher.join();
  ::close(g_signal_pipe[0]);
  g_signal_pipe[0] = g_signal_pipe[1] = -1;
}

/// Minimal blocking client for --self_test.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DIAL_CHECK(fd_ >= 0) << "socket(): " << std::strerror(errno);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    DIAL_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
        << "connect(" << socket_path << "): " << std::strerror(errno);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  JsonValue Call(const std::string& request) {
    std::string line = request;
    line.push_back('\n');
    // EINTR-safe request write + response read (same discipline as the
    // server side — a stray signal must not desync the framing).
    DIAL_CHECK(dial::serve::SendAll(fd_, line.data(), line.size()))
        << "server closed the connection";
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t n = dial::serve::ReadRetry(fd_, chunk, sizeof(chunk));
      DIAL_CHECK(n > 0) << "server closed the connection";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const size_t newline = buffer_.find('\n');
    const std::string response = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    auto parsed = dial::serve::ParseJson(response);
    DIAL_CHECK(parsed.ok()) << parsed.status().ToString() << ": " << response;
    return std::move(parsed).value();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

int SelfTest(dial::serve::ServingBundle& bundle, const std::string& socket_path,
             dial::serve::ServerOptions options) {
  dial::serve::Server server(&bundle, options);
  DIAL_CHECK_OK(server.Start());
  Client client(socket_path);

  JsonValue match = client.Call(R"({"op":"match","id":"m1","r":0,"s":0})");
  DIAL_CHECK(match.GetString("status", "") == "ok") << match.Dump();
  DIAL_CHECK(match.Get("prob") != nullptr) << match.Dump();

  JsonValue text_match = client.Call(
      R"({"op":"match","id":"m2","r_text":"acme phone 32gb","s_text":"acme phone 32 gb"})");
  DIAL_CHECK(text_match.GetString("status", "") == "ok") << text_match.Dump();

  JsonValue topk = client.Call(R"({"op":"topk","id":"t1","text":"acme phone","k":3})");
  DIAL_CHECK(topk.GetString("status", "") == "ok") << topk.Dump();
  DIAL_CHECK(topk.Get("neighbors") != nullptr) << topk.Dump();

  JsonValue embed = client.Call(R"({"op":"embed","id":"e1","text":"acme phone"})");
  DIAL_CHECK(embed.GetString("status", "") == "ok") << embed.Dump();
  DIAL_CHECK(embed.Get("embedding") != nullptr &&
             !embed.Get("embedding")->items().empty())
      << embed.Dump();

  JsonValue bad = client.Call(R"({"op":"match","id":"b1","r":99999999,"s":0})");
  DIAL_CHECK(bad.GetString("status", "") == "error") << bad.Dump();

  // Incremental lifecycle: upsert record 0 in place, retire record 1, and
  // confirm the retired record stops surfacing in topk while by-id matching
  // keeps working.
  JsonValue upsert = client.Call(
      R"({"op":"upsert","id":"u1","r":0,"text":"acme phone 32gb refurbished"})");
  DIAL_CHECK(upsert.GetString("status", "") == "ok") << upsert.Dump();
  DIAL_CHECK(upsert.Get("live") != nullptr) << upsert.Dump();

  JsonValue retire = client.Call(R"({"op":"retire","id":"x1","r":1})");
  DIAL_CHECK(retire.GetString("status", "") == "ok") << retire.Dump();
  JsonValue retire_again = client.Call(R"({"op":"retire","id":"x2","r":1})");
  DIAL_CHECK(retire_again.GetString("status", "") == "error") << retire_again.Dump();

  JsonValue topk_after =
      client.Call(R"({"op":"topk","id":"t2","text":"acme phone","k":5})");
  DIAL_CHECK(topk_after.GetString("status", "") == "ok") << topk_after.Dump();
  for (const JsonValue& hit : topk_after.Get("neighbors")->items()) {
    DIAL_CHECK(hit.GetNumber("r", -1) != 1) << "retired record served: "
                                            << topk_after.Dump();
  }
  JsonValue match_after = client.Call(R"({"op":"match","id":"m3","r":1,"s":0})");
  DIAL_CHECK(match_after.GetString("status", "") == "ok") << match_after.Dump();

  // Health: answered inline, reports worker liveness and the bundle's
  // fingerprint.
  JsonValue health = client.Call(R"({"op":"health","id":"h1"})");
  DIAL_CHECK(health.GetString("status", "") == "ok") << health.Dump();
  DIAL_CHECK(health.Get("healthy") != nullptr &&
             health.Get("healthy")->AsBool())
      << health.Dump();
  DIAL_CHECK(health.GetNumber("workers", 0) >= 1) << health.Dump();
  DIAL_CHECK(health.GetNumber("stalled_workers", -1) == 0) << health.Dump();
  DIAL_CHECK(!health.GetString("bundle_fingerprint", "").empty())
      << health.Dump();

  // Deadline expiry: deadline_ms 0 expires at enqueue time, so the claim
  // check (now >= deadline) sheds it deterministically.
  JsonValue expired = client.Call(
      R"({"op":"match","id":"d1","r":0,"s":0,"deadline_ms":0})");
  DIAL_CHECK(expired.GetString("status", "") == "deadline_exceeded")
      << expired.Dump();

  JsonValue stats = client.Call(R"({"op":"stats","id":"s1"})");
  DIAL_CHECK(stats.GetNumber("requests_executed", 0) >= 9) << stats.Dump();
  DIAL_CHECK(stats.GetNumber("deadline_expired", 0) >= 1) << stats.Dump();

  JsonValue ack = client.Call(R"({"op":"shutdown","id":"q1"})");
  DIAL_CHECK(ack.GetString("status", "") == "ok") << ack.Dump();
  server.WaitForShutdown();
  server.Stop();

  // Phase 2: fresh server on the same socket, stopped via SIGTERM — the
  // production shutdown path (self-pipe -> watcher -> drain -> clean stop).
  {
    dial::serve::Server term_server(&bundle, options);
    DIAL_CHECK_OK(term_server.Start());
    std::thread watcher = WatchShutdownSignals(term_server);
    Client term_client(socket_path);
    JsonValue m = term_client.Call(R"({"op":"match","id":"tm1","r":0,"s":0})");
    DIAL_CHECK(m.GetString("status", "") == "ok") << m.Dump();
    ::raise(SIGTERM);
    term_server.WaitForShutdown();
    term_server.Stop();
    JoinShutdownWatcher(watcher);
    DIAL_CHECK(term_server.scheduler_stats().requests_executed >= 1);
    // Clean stop removes the socket file.
    DIAL_CHECK(::access(socket_path.c_str(), F_OK) != 0)
        << "socket file survived shutdown";
  }

  std::printf("self_test ok: %s\n", stats.Dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* dataset = flags.AddString("dataset", "walmart_amazon", "dataset name");
  std::string* scale_text = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* data_seed = flags.AddInt("data_seed", 1, "dataset generator seed");
  int64_t* al_seed = flags.AddInt("al_seed", 7, "active-learning seed");
  std::string* bundle_path = flags.AddString(
      "bundle", "", "bundle file: load if present, else train and save here");
  std::string* socket_path =
      flags.AddString("socket", "/tmp/dial_serve.sock", "unix socket path");
  std::string* backend_text = flags.AddString("backend", "flat", "index backend");
  int64_t* k_neighbors = flags.AddInt("k", 3, "IBC neighbours per member probe");
  int64_t* workers = flags.AddInt("workers", 2, "scheduler worker threads");
  int64_t* max_batch = flags.AddInt("max_batch", 32, "max requests per fused batch");
  int64_t* max_delay_us =
      flags.AddInt("max_delay_us", 2000, "deadline before a partial batch flushes");
  int64_t* ring = flags.AddInt("ring", 1024, "request ring capacity (overload bound)");
  int64_t* deadline_ms = flags.AddInt(
      "deadline_ms", -1,
      "default per-request deadline in ms; queued requests older than this "
      "are shed with deadline_exceeded (-1 = none; a request's own "
      "deadline_ms overrides)");
  int64_t* stall_ms = flags.AddInt(
      "stall_ms", 30000,
      "report a worker as stalled in health/stats after this many ms inside "
      "one batch");
  bool* self_test = flags.AddBool(
      "self_test", false, "serve, run a scripted client session, exit (CI smoke)");
  std::string* precision_text = flags.AddString(
      "precision", "fp32",
      "fp32|int8 worker inference numerics (int8 quantizes linear sublayers; "
      "match scores are no longer bit-identical to fp32 scoring)");
  flags.Parse(argc, argv);

  using dial::util::CheckFlag;
  const dial::autograd::Precision precision =
      CheckFlag(dial::autograd::ParsePrecision(*precision_text));
  CheckFlag(dial::data::CheckDatasetName(*dataset));
  dial::serve::ServingOptions options;
  options.dataset = *dataset;
  options.scale = CheckFlag(dial::data::ParseScale(*scale_text));
  options.data_seed = static_cast<uint64_t>(*data_seed);
  options.al_seed = static_cast<uint64_t>(*al_seed);
  options.backend = CheckFlag(dial::core::ParseIndexBackend(*backend_text));
  options.k_neighbors = static_cast<size_t>(*k_neighbors);

  std::unique_ptr<dial::serve::ServingBundle> bundle;
  if (!bundle_path->empty()) {
    if (FILE* f = std::fopen(bundle_path->c_str(), "rb"); f != nullptr) {
      std::fclose(f);
      auto loaded = dial::serve::ServingBundle::Load(*bundle_path);
      DIAL_CHECK_OK(loaded.status());
      bundle = std::move(loaded).value();
      std::printf("loaded bundle %s (%s/%s, %zu R records)\n", bundle_path->c_str(),
                  bundle->options().dataset.c_str(),
                  dial::data::ScaleName(bundle->options().scale).c_str(),
                  bundle->num_r_records());
    }
  }
  if (bundle == nullptr) {
    std::printf("training bundle for %s/%s...\n", dataset->c_str(), scale_text->c_str());
    bundle = dial::serve::ServingBundle::Train(options);
    if (!bundle_path->empty()) {
      DIAL_CHECK_OK(bundle->Save(*bundle_path));
      std::printf("saved bundle to %s\n", bundle_path->c_str());
    }
  }

  dial::serve::ServerOptions server_options;
  server_options.socket_path = *socket_path;
  server_options.scheduler.num_workers = static_cast<size_t>(*workers);
  server_options.scheduler.max_batch = static_cast<size_t>(*max_batch);
  server_options.scheduler.max_delay_us = *max_delay_us;
  server_options.scheduler.ring_capacity = static_cast<size_t>(*ring);
  server_options.scheduler.default_deadline_ms = *deadline_ms;
  server_options.scheduler.stall_timeout_ms = *stall_ms;
  server_options.precision = precision;

  if (*self_test) {
    return SelfTest(*bundle, *socket_path, std::move(server_options));
  }

  dial::serve::Server server(bundle.get(), std::move(server_options));
  DIAL_CHECK_OK(server.Start());
  std::thread signal_watcher = WatchShutdownSignals(server);
  std::printf("serving %s on %s (%lld workers, max_batch %lld, deadline %lld us)\n",
              bundle->options().dataset.c_str(), socket_path->c_str(),
              static_cast<long long>(*workers), static_cast<long long>(*max_batch),
              static_cast<long long>(*max_delay_us));
  server.WaitForShutdown();
  server.Stop();
  JoinShutdownWatcher(signal_watcher);
  const dial::serve::SchedulerStats stats = server.scheduler_stats();
  std::printf("shutdown: %llu requests in %llu batches (mean %.2f, max %zu)\n",
              static_cast<unsigned long long>(stats.requests_executed),
              static_cast<unsigned long long>(stats.batches), stats.mean_batch_size(),
              stats.max_batch_observed);
  return 0;
}
