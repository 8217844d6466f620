#ifndef DIALBENCH_WIRE_H_
#define DIALBENCH_WIRE_H_

// The client side of dial_serve for dialbench: start the server as a child
// process, talk newline-delimited JSON over its unix socket, and drive
// closed- and open-loop request phases from one poll() loop, so the load
// generator is a single thread however many connections it holds.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "trace.h"

namespace dialbench {

/// VmHWM (peak resident set) of a process in MB; 0 when unreadable.
inline double PeakRssMbOf(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Restarts a process's VmHWM at its current RSS (Linux clear_refs "5"), so
/// the next read is the peak of what ran since.
inline void ResetPeakRss(const std::string& pid) {
  std::ofstream("/proc/" + pid + "/clear_refs") << "5";
}

/// One connected unix-socket line client.
class Conn {
 public:
  Conn() = default;
  ~Conn() { Close(); }
  Conn(Conn&& other) noexcept : fd_(other.fd_), buf_(std::move(other.buf_)) {
    other.fd_ = -1;
  }
  Conn& operator=(Conn&&) = delete;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(const std::string& path) {
    Close();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  int fd() const { return fd_; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  /// Sends bytes that already end in '\n'.
  bool Send(const std::string& framed) {
    return fd_ >= 0 && dial::serve::SendAll(fd_, framed.data(), framed.size());
  }

  /// One read(); appends every complete line to `lines`. False on EOF/error.
  bool ReadAvailable(std::vector<std::string>* lines) {
    char chunk[16384];
    const ssize_t n = dial::serve::ReadRetry(fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    size_t begin = 0, newline;
    while ((newline = buf_.find('\n', begin)) != std::string::npos) {
      lines->push_back(buf_.substr(begin, newline - begin));
      begin = newline + 1;
    }
    buf_.erase(0, begin);
    return true;
  }

  /// Blocking request/response for a connection with nothing in flight.
  bool Call(const std::string& request, std::string* reply) {
    if (!Send(request + "\n")) return false;
    std::vector<std::string> lines;
    while (lines.empty()) {
      if (!ReadAvailable(&lines)) return false;
    }
    *reply = lines.front();
    return lines.size() == 1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Parses the request sequence number out of an echoed "id":"q<n>".
inline bool ParseSeq(const std::string& reply, uint64_t* seq) {
  const size_t pos = reply.find("\"id\":\"q");
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  *seq = std::strtoull(reply.c_str() + pos + 7, &end, 10);
  return end != reply.c_str() + pos + 7 && *end == '"';
}

inline bool ReplyOk(const std::string& reply) {
  return reply.find("\"status\":\"ok\"") != std::string::npos;
}

/// A dial_serve child process. Started with only --bundle and --socket, so it
/// runs with its own defaults. It gets SIGKILL if dialbench dies first, and
/// the destructor shuts it down and reaps it.
class ServeChild {
 public:
  ServeChild() = default;
  ~ServeChild() { Stop(); }
  ServeChild(const ServeChild&) = delete;
  ServeChild& operator=(const ServeChild&) = delete;

  /// Spawns the server and waits for its first ok `health` reply. setup_s()
  /// is the time from fork to that reply.
  bool Start(const std::string& binary, const std::string& bundle,
             const std::string& socket, std::string* error) {
    socket_ = socket;
    const std::string bundle_flag = "--bundle=" + bundle;
    const std::string socket_flag = "--socket=" + socket;
    const pid_t parent = ::getpid();
    const int64_t t0 = NowUs();
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execl(binary.c_str(), binary.c_str(), bundle_flag.c_str(),
              socket_flag.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const int64_t give_up = t0 + 60'000'000;
    while (NowUs() < give_up) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "dial_serve exited during start-up (status " +
                 std::to_string(status) + ")";
        return false;
      }
      Conn probe;
      std::string reply;
      if (probe.Connect(socket_) &&
          probe.Call(R"({"op":"health","id":"h"})", &reply) && ReplyOk(reply)) {
        setup_s_ = static_cast<double>(NowUs() - t0) / 1e6;
        return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    *error = "dial_serve did not answer health within 60 s";
    return false;
  }

  double setup_s() const { return setup_s_; }
  const std::string& socket() const { return socket_; }
  /// Makes PeakRssMb cover only what runs from here on.
  void ResetPeakRss() const {
    if (pid_ > 0) dialbench::ResetPeakRss(std::to_string(pid_));
  }
  double PeakRssMb() const { return pid_ > 0 ? PeakRssMbOf(std::to_string(pid_)) : 0.0; }

  /// Asks the server to shut down and reaps it (SIGKILL after 10 s). True
  /// when it exited with status 0.
  bool Stop() {
    if (pid_ <= 0) return true;
    Conn conn;
    std::string reply;
    if (conn.Connect(socket_)) conn.Call(R"({"op":"shutdown","id":"x"})", &reply);
    conn.Close();
    int status = -1;
    const int64_t give_up = NowUs() + 10'000'000;
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && NowUs() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (done == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      status = -1;
    }
    pid_ = -1;
    return status == 0;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
  double setup_s_ = 0.0;
};

/// One request RunPhase sends; `line` ends in '\n' and carries the
/// id "q<seq>". `kind` picks the latency bucket it is reported in.
struct Outgoing {
  std::string line;
  int kind = 0;
};

constexpr int kKinds = 3;

struct PhaseResult {
  size_t sent = 0;
  size_t ok = 0;
  size_t failed = 0;
  /// First send to last reply.
  double seconds = 0.0;
  /// Per kind. Closed loop: from send; open loop: from the due time.
  std::vector<double> latency_ms[kKinds];
  /// Per kind, parallel to latency_ms: reply time, ns after the phase start.
  std::vector<int64_t> done_ns[kKinds];
  /// Open loop only: how late each send left against its due time.
  std::vector<double> late_ms;
};

using MakeFn = std::function<Outgoing(uint64_t seq)>;
/// Called for every reply; returns false when it is not "ok" or its content
/// fails the workload's check.
using ReplyFn = std::function<bool(uint64_t seq, const std::string& reply)>;

/// Drives one phase (timestamps in steady-clock ns). Closed loop (rate_qps == 0): every connection keeps one
/// request outstanding for `seconds`. Open loop: request n is due at
/// start + n / rate_qps and goes out on connection n % conns whatever the
/// server has answered. Either way the phase then waits (up to 10 s) for
/// the replies still outstanding. Sequence numbers start at *next_seq and
/// advance it. With a tracer and a non-empty `span_name`, each request
/// becomes a span.
inline PhaseResult RunPhase(std::vector<Conn>& conns, double seconds, double rate_qps,
                            uint64_t* next_seq, const MakeFn& make,
                            const ReplyFn& on_reply, Tracer& tracer,
                            const std::string& span_name) {
  struct InFlight {
    int64_t due_us = 0;
    int64_t send_us = 0;
    int kind = 0;
    size_t conn = 0;
    bool done = false;
  };
  const bool open = rate_qps > 0;
  const uint64_t first_seq = *next_seq;
  std::vector<InFlight> reqs;
  PhaseResult result;
  size_t outstanding = 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t drain_deadline = end + 10'000'000'000;
  int64_t last_reply = start;

  auto send = [&](size_t c, int64_t due) {
    const uint64_t seq = first_seq + reqs.size();
    Outgoing out = make(seq);
    const int64_t now = NowNs();
    reqs.push_back(InFlight{due, now, out.kind, c, false});
    ++result.sent;
    if (open) result.late_ms.push_back(static_cast<double>(now - due) / 1e6);
    if (!conns[c].Send(out.line)) {
      reqs.back().done = true;
      ++result.failed;
      return;
    }
    ++outstanding;
  };

  if (!open) {
    for (size_t c = 0; c < conns.size(); ++c) send(c, NowNs());
  }
  std::vector<pollfd> pfds(conns.size());
  for (size_t c = 0; c < conns.size(); ++c) pfds[c] = pollfd{conns[c].fd(), POLLIN, 0};
  uint64_t next_open = 0;
  std::vector<std::string> lines;
  bool broken = false;
  while (!broken) {
    int64_t now = NowNs();
    int64_t next_due = end;
    if (open) {
      while (true) {
        const int64_t due =
            start + static_cast<int64_t>(static_cast<double>(next_open) * 1e9 / rate_qps);
        if (due >= end) break;
        if (due > now) {
          next_due = due;
          break;
        }
        send(static_cast<size_t>(next_open % conns.size()), due);
        ++next_open;
      }
      now = NowNs();
    }
    if (now >= end && outstanding == 0) break;
    if (now >= drain_deadline) break;
    const int64_t wait_ns = now < end ? std::max<int64_t>(0, next_due - now)
                                      : drain_deadline - now;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR) break;
    for (size_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      if (!conns[c].ReadAvailable(&lines)) {
        broken = true;
        break;
      }
      const int64_t t = NowNs();
      for (const std::string& line : lines) {
        uint64_t seq = 0;
        if (!ParseSeq(line, &seq) || seq < first_seq || seq - first_seq >= reqs.size() ||
            reqs[seq - first_seq].done) {
          ++result.failed;
          continue;
        }
        InFlight& req = reqs[seq - first_seq];
        req.done = true;
        --outstanding;
        last_reply = t;
        const int64_t base = open ? req.due_us : req.send_us;
        if (on_reply(seq, line)) {
          ++result.ok;
          result.latency_ms[req.kind].push_back(static_cast<double>(t - base) / 1e6);
          result.done_ns[req.kind].push_back(t - start);
        } else {
          ++result.failed;
        }
        if (!span_name.empty()) {
          tracer.Record(span_name, base / 1000, t / 1000, 0, static_cast<int64_t>(seq));
        }
        if (!open && t < end) send(c, t);
      }
    }
  }
  result.failed += outstanding;  // unanswered by the drain deadline
  result.seconds = static_cast<double>(last_reply - start) / 1e9;
  *next_seq = first_seq + reqs.size();
  return result;
}

/// Splits a phase into `windows` equal spans and returns, per span, the
/// quantile `q` of the `kind` latencies completed in it (windows with no
/// replies are skipped).
inline std::vector<double> WindowQuantiles(const PhaseResult& p, int kind, double q,
                                           size_t windows) {
  std::vector<std::vector<double>> buckets(windows);
  const double span = p.seconds * 1e9 / static_cast<double>(windows);
  for (size_t i = 0; i < p.latency_ms[kind].size(); ++i) {
    const auto w = static_cast<size_t>(static_cast<double>(p.done_ns[kind][i]) / span);
    buckets[std::min(w, windows - 1)].push_back(p.latency_ms[kind][i]);
  }
  std::vector<double> out;
  for (auto& b : buckets) {
    if (b.empty()) continue;
    std::sort(b.begin(), b.end());
    const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(b.size())));
    out.push_back(b[std::min(std::max<size_t>(rank, 1), b.size()) - 1]);
  }
  return out;
}

/// Replies completed per second in each of `windows` equal spans.
inline std::vector<double> WindowRates(const PhaseResult& p, size_t windows) {
  std::vector<double> counts(windows, 0.0);
  const double span = p.seconds * 1e9 / static_cast<double>(windows);
  for (int kind = 0; kind < kKinds; ++kind) {
    for (const int64_t t : p.done_ns[kind]) {
      counts[std::min(static_cast<size_t>(static_cast<double>(t) / span), windows - 1)] += 1;
    }
  }
  for (double& c : counts) c /= span / 1e9;
  return counts;
}

/// Scheduler counters from the wire `stats` op.
struct WireStats {
  double batches = 0, executed = 0, deadline_flushes = 0;

  /// Adds what the counters did between two snapshots.
  void Add(const WireStats& from, const WireStats& to) {
    batches += to.batches - from.batches;
    executed += to.executed - from.executed;
    deadline_flushes += to.deadline_flushes - from.deadline_flushes;
  }

  /// Requests executed per batch (0 with no batch).
  double MeanBatch() const { return batches > 0 ? executed / batches : 0.0; }
};

inline bool ReadWireStats(Conn& conn, WireStats* out) {
  std::string reply;
  if (!conn.Call(R"({"op":"stats","id":"s"})", &reply)) return false;
  auto parsed = dial::serve::ParseJson(reply);
  if (!parsed.ok()) return false;
  out->batches = parsed.value().GetNumber("batches", 0);
  out->executed = parsed.value().GetNumber("requests_executed", 0);
  out->deadline_flushes = parsed.value().GetNumber("deadline_flushes", 0);
  return true;
}

}  // namespace dialbench

#endif  // DIALBENCH_WIRE_H_
